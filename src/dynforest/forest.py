"""Forest of lazily maintained randomized trees with occupancy subsampling.

Every sample is assigned to exactly k = ceil(occupancy * n_trees) distinct
trees, so each tree trains on roughly an occupancy-fraction of the data and
a deletion touches only the k trees that ever saw the sample.  Combined
with the trees' lazy tag protocol, most deletions reduce to patching path
statistics; subtree rebuilds are deferred until a query actually lands on
a tagged node (or flush() is called).

The forest owns its Dataset: after training, add and delete samples
through the forest so the tree assignment and the per-tree statistics stay
in step with the data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .tree import (CHOOSE, GridPool, Telemetry, Tree, TreeParams, _untag, delete_groups,
                   feature_row, feature_rows, grow, key_words, route_row, route_rows,
                   tree_keys, update_paths)


def subsample_count(occupancy, n_trees):
    """Trees per sample: ceil(occupancy * n_trees), clamped to [1, n_trees].

    A small tolerance keeps products like 0.3 * 10 from rounding up to 4.
    """
    if not 0.0 < occupancy <= 1.0:
        raise ValueError("occupancy must be in (0, 1], got %r" % (occupancy,))
    k = math.ceil(occupancy * n_trees - 1e-9)
    return min(max(k, 1), n_trees)


@dataclass
class ForestParams:
    n_trees: int = 100
    occupancy: float = 1.0
    seed: int = 0
    tree: TreeParams = field(default_factory=TreeParams)

    def validate(self, d):
        if (not isinstance(self.seed, int) or isinstance(self.seed, bool)
                or not 0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer in [0, 2**64), got %r" % (self.seed,))
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        subsample_count(self.occupancy, self.n_trees)  # bounds check
        self.tree.validate(d)


def choose_trees(keys, ids, k):
    """Each id's k trees, the k whose word 3*id + 1 of their key is
    smallest (tree.py's Randomness), as sorted rows of an int32
    (len(ids), k) array.  Ids go in chunks of about 2**20 words."""
    ids = np.asarray(ids, dtype=np.int64)
    keys = np.asarray(keys, np.uint64)
    assign = np.empty((len(ids), k), np.int32)
    chunk = max((1 << 20) // len(keys), 1)
    for lo in range(0, len(ids), chunk):
        words = key_words(keys, 3 * ids[lo:lo + chunk, None] + CHOOSE)
        block = np.argpartition(words, k - 1, axis=1)[:, :k]
        block.sort(axis=1)
        assign[lo:lo + chunk] = block
    return assign


def distribute(ids, keys, k):
    """Assign each id to its k trees (choose_trees).

    Returns
    -------
    per_tree : list of ndarray
        For each tree, the ids it trains on, in the order of ids.
    assign : ndarray of int32, shape (len(ids), k)
        Sorted tree indices per id.
    """
    ids = np.asarray(ids, dtype=np.int64)
    assign = choose_trees(keys, ids, k)
    return group_by_tree(ids, assign, len(keys)), assign


def group_by_tree(ids, assign, n_trees):
    """Split ids by the trees their assign rows name.

    Returns one int64 array per tree holding, in the order of ids, the ids
    whose row names that tree.
    """
    flat_tree = assign.ravel()
    order = np.argsort(flat_tree, kind="stable")
    sorted_ids = np.repeat(ids, assign.shape[1])[order]
    bounds = np.concatenate(([0], np.bincount(flat_tree, minlength=n_trees).cumsum()))
    return [sorted_ids[bounds[t]:bounds[t + 1]] for t in range(n_trees)]


def _sample_id(value):
    """A sample id as a Python int: a Python or numpy integer.  A bool, a
    float or any other value is a TypeError, so that no id is truncated."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError("sample id must be an integer, got %r" % (value,))


class Forest:
    """Trained forest; construct with Forest.train() or snapshot.load().

    Every draw comes from the trees' keys, words of params.seed
    (tree.tree_keys).  assignment is an int32 array with k columns and at
    least ds.next_id rows: a live id's row holds its sorted tree indices,
    every other row is -1.  lazy=False regrows tagged subtrees immediately
    after every update, giving eager semantics for comparison runs.
    """

    def __init__(self, ds, params, trees, assignment, lazy=True):
        self.ds = ds
        self.params = params
        self.trees = trees
        self.assignment = assignment
        self.lazy = lazy
        self.k = subsample_count(params.occupancy, params.n_trees)

    # -- construction -----------------------------------------------------

    @classmethod
    def train(cls, ds, params, lazy=True):
        """Grow a forest over every live sample in ds.

        Each sample goes to its k trees (choose_trees).  All roots grow
        together (tree.grow), one split-kernel call per level, and every
        node draws from its own key, so a tree grows exactly as build_tree
        with the tree's key would grow it.
        """
        params.validate(ds.n_attrs)
        keys = tree_keys(params.seed, params.n_trees)
        k = subsample_count(params.occupancy, params.n_trees)
        ids = ds.live_ids()
        per_tree, assign = distribute(ids, keys, k)
        # the grids of one depth cover at most len(ids) * k / min_split_size
        # nodes, and a forest holds about 0.3-2 times that in all; twice it
        # spares most of the pool's doublings, rows never written take no
        # resident memory, and trim() drops them
        pool = GridPool(params.tree.resolve_attrs(ds.n_attrs), params.tree.n_thresholds,
                        2 * len(ids) * k // params.tree.min_split_size)
        trees = [Tree(params.tree, ds, key, pool) for key in keys]
        assignment = np.full((ds.next_id, k), -1, np.int32)
        assignment[ids] = assign
        grow([(tree, [tree.plant(tree_ids)]) for tree, tree_ids in zip(trees, per_tree)])
        pool.trim()
        return cls(ds, params, trees, assignment, lazy=lazy)

    # -- prediction ---------------------------------------------------------

    @property
    def prior(self):
        """Positive fraction of live training samples (0.5 when empty)."""
        return self.ds.n_pos / self.ds.n_live if self.ds.n_live else 0.5

    def predict(self, x):
        """Probability that x is positive: mean over trees of the reached
        leaf's positive fraction (empty leaves fall back to the prior).

        The row goes down each tree in turn to a leaf or a tagged node;
        the tagged nodes reached in all trees then grow one level together
        (see tree.route_row), and the row goes on from there.  Nodes grown
        by a query draw from their own keys, so the forest grows exactly as
        tree-by-tree Tree.query calls would grow it.
        """
        leaves = route_row(self.trees, feature_row(x, self.ds.n_attrs))
        prior = self.prior
        fractions = np.fromiter((leaf.n_pos / len(leaf.ids) if len(leaf.ids) else prior
                                 for leaf in leaves), np.float64, len(leaves))
        # np.mean's sum and division, without its Python-level wrapper
        return float(np.add.reduce(fractions) / len(leaves))

    def predict_many(self, X):
        """Vectorized predict over the rows of X.

        The rows go down all trees together, a depth per step, to leaves
        and tagged nodes; once every row has stopped, the tagged nodes
        reached in all trees grow one level together, in one kernel call
        (see tree.route_rows), and the rows there go on.  Keyed
        draws make the result equal to tree-by-tree Tree.query_many calls,
        and each row's trees are averaged as predict averages them, so a
        row gets the same bits from either call.
        """
        n, pos = route_rows(self.trees, feature_rows(X, self.ds.n_attrs))
        with np.errstate(invalid="ignore"):
            probs = np.where(n > 0, pos / np.maximum(n, 1), self.prior)
        # np.add.reduce sums a contiguous axis pairwise, as in predict; down
        # the trees axis of probs it would add the trees in order
        return np.add.reduce(np.ascontiguousarray(probs.T), axis=1) / len(self.trees)

    # -- updates ------------------------------------------------------------

    def add(self, features, label):
        """Add a sample to the dataset and to its k trees (choose_trees).

        The k trees take it in one path walk (see tree.update_paths):
        each is routed, all their path grids are patched, range-changed
        and scored together, then each tree walks down to its tag.
        Returns the new sample id.
        """
        sample_id = self.ds.add(features, label)
        chosen, = choose_trees([tree.key for tree in self.trees], [sample_id], self.k)
        if sample_id >= len(self.assignment):
            grown = np.full((max(sample_id + 1, 2 * len(self.assignment)), self.k),
                            -1, np.int32)
            grown[:len(self.assignment)] = self.assignment
            self.assignment = grown
        self.assignment[sample_id] = chosen
        self._update(chosen, sample_id, add=True)
        return sample_id

    def delete(self, sample_id):
        """Remove a live sample from its k trees and tombstone it, which
        zeroes its row.

        The k trees drop it in one path walk, as add() inserts one.
        Raises KeyError for unknown or already-deleted ids and TypeError
        for an id that is not an integer.
        """
        sample_id = _sample_id(sample_id)
        if not self.ds.is_live(sample_id):
            raise KeyError("sample id %d is not live" % sample_id)
        self._update(self.assignment[sample_id], sample_id, add=False)
        self.assignment[sample_id] = -1
        self.ds.tombstone(sample_id)

    def _update(self, tree_ids, sample_id, add):
        """One path walk over the trees tree_ids names (see
        tree.update_paths); in eager mode the tagged nodes then regrow."""
        trees = [self.trees[t] for t in tree_ids]
        tagged = update_paths(trees, sample_id, add)
        if not self.lazy:
            grow([(tree, _untag([(tree, node)]))
                  for tree, node in zip(trees, tagged) if node is not None])

    def unlearn_batch(self, ids, finalize=False):
        """Delete many samples in one grouped walk; optionally flush tagged
        subtrees afterwards.

        Each tree's share of the batch goes down its tree split at each
        node by the node's split, and the nodes of all trees are walked
        level by level together (tree.delete_groups): each level's grids
        are patched, rescanned and scored in stacked calls.  The batch's
        rows are then zeroed in one step.  An eager forest then regrows
        every node the batch tagged, all in one tree.grow.  The id list is
        validated up front: one unknown, dead, repeated or non-integer id
        rejects the whole batch before anything is deleted.
        """
        ids = [_sample_id(i) for i in ids]
        bad = self.ds.first_bad(ids)
        if bad != -1:
            raise KeyError("batch rejected: sample id %d %s" % (
                ids[bad], "repeated" if self.ds.is_live(ids[bad]) else "is not live"))
        batch = np.asarray(ids, np.int64)
        groups = group_by_tree(batch, self.assignment[batch], len(self.trees))
        tagged = delete_groups(list(zip(self.trees, groups)))
        if not self.lazy:
            grow([(tree, _untag([(tree, node) for node in nodes]))
                  for tree, nodes in zip(self.trees, tagged)])
        self.assignment[batch] = -1
        self.ds.tombstone_many(batch)
        if finalize:
            self.flush()

    def flush(self):
        """Rebuild every tagged subtree in every tree, the tagged nodes of
        all trees growing together (tree.grow); each tree grows exactly as
        its own Tree.flush would grow it."""
        grow([(tree, tree.untag_all()) for tree in self.trees])

    # -- introspection --------------------------------------------------------

    def tagged_count(self):
        return sum(t.n_tagged for t in self.trees)

    def telemetry(self):
        """Sum of all per-tree work counters."""
        return Telemetry(**{f.name: sum(getattr(t.telemetry, f.name) for t in self.trees)
                            for f in fields(Telemetry)})

    def reset_telemetry(self):
        for t in self.trees:
            t.telemetry.reset()
