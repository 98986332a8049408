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
from dataclasses import dataclass, field, fields

import numpy as np

from .tree import Telemetry, Tree, TreeParams, route_row, route_rows, update_paths


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
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        subsample_count(self.occupancy, self.n_trees)  # bounds check
        self.tree.validate(d)


def distribute(ids, n_trees, k, rng):
    """Assign each id to k distinct trees chosen uniformly at random.

    Returns
    -------
    per_tree : list of ndarray
        For each tree, the ids it trains on, in ascending id order.
    assign : ndarray of int32, shape (len(ids), k)
        Sorted tree indices per id.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    assign = np.empty((n, k), np.int32)
    chunk = 1 << 15
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        block = np.tile(np.arange(n_trees, dtype=np.int32), (m, 1))
        block = rng.permuted(block, axis=1)[:, :k]
        block.sort(axis=1)
        assign[lo:lo + m] = block
    return group_by_tree(ids, assign, n_trees), assign


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


class Forest:
    """Trained forest; construct with Forest.train() or snapshot.load().

    assignment is an int32 array with k columns and at least ds.next_id
    rows: a live id's row holds its sorted tree indices, every other row
    is -1.  lazy=False rebuilds tagged subtrees immediately after every
    update, giving eager semantics for comparison runs.
    """

    def __init__(self, ds, params, trees, assignment, rng, lazy=True):
        self.ds = ds
        self.params = params
        self.trees = trees
        self.assignment = assignment
        self.rng = rng
        self.lazy = lazy
        self.k = subsample_count(params.occupancy, params.n_trees)

    # -- construction -----------------------------------------------------

    @classmethod
    def train(cls, ds, params, lazy=True):
        """Grow a forest over every live sample in ds."""
        params.validate(ds.n_attrs)
        n_trees = params.n_trees
        seeds = np.random.SeedSequence(params.seed).spawn(n_trees + 1)
        rng = np.random.default_rng(seeds[n_trees])
        k = subsample_count(params.occupancy, n_trees)
        ids = ds.live_ids()
        per_tree, assign = distribute(ids, n_trees, k, rng)
        trees = [Tree(params.tree, ds, np.random.default_rng(seeds[t]))
                 for t in range(n_trees)]
        assignment = np.full((ds.next_id, k), -1, np.int32)
        assignment[ids] = assign
        for tree, tree_ids in zip(trees, per_tree):
            tree.build(tree_ids)
        return cls(ds, params, trees, assignment, rng, lazy=lazy)

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
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ds.n_attrs,):
            raise ValueError("expected %d features, got shape %s"
                             % (self.ds.n_attrs, x.shape))
        row = x.tolist()  # routing compares Python floats faster than numpy scalars
        if not all(map(math.isfinite, row)):
            raise ValueError("features must be finite, row 0 is not")
        leaves = route_row(self.trees, row)
        prior = self.prior
        fractions = np.fromiter((leaf.n_pos / len(leaf.ids) if len(leaf.ids) else prior
                                 for leaf in leaves), np.float64, len(leaves))
        # np.mean's sum and division, without its Python-level wrapper
        return float(np.add.reduce(fractions) / len(leaves))

    def predict_many(self, X):
        """Vectorized predict over the rows of X.

        The rows go down each tree in turn to leaves and tagged nodes; the
        tagged frontier of all trees then grows one level together, in
        kernel calls of at most as many samples as the largest root holds
        (see tree.route_rows), and the rows there go on.  Keyed draws make
        the result equal to tree-by-tree Tree.query_many calls.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.ds.n_attrs:
            raise ValueError("expected (m, %d) matrix, got shape %s"
                             % (self.ds.n_attrs, X.shape))
        if not np.isfinite(X).all():
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
            raise ValueError("features must be finite, row %d is not" % bad)
        n, pos = route_rows(self.trees, X)
        with np.errstate(invalid="ignore"):
            probs = np.where(n > 0, pos / np.maximum(n, 1), self.prior)
        return probs.mean(axis=0)

    # -- updates ------------------------------------------------------------

    def add(self, features, label):
        """Add a sample to the dataset and to k freshly drawn trees.

        The k trees take it in one path walk (see tree.update_paths):
        each is routed, all their path grids are patched and scored
        together, then each tree settles its redraws and tag.  Returns
        the new sample id.
        """
        sample_id = self.ds.add(features, label)
        chosen = np.sort(self.rng.choice(self.params.n_trees, size=self.k,
                                         replace=False))
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
        Raises KeyError for unknown or already-deleted ids.
        """
        sample_id = int(sample_id)
        if not self.ds.is_live(sample_id):
            raise KeyError("sample id %d is not live" % sample_id)
        self._update(self.assignment[sample_id], sample_id, add=False)
        self.assignment[sample_id] = -1
        self.ds.tombstone(sample_id)

    def _update(self, tree_ids, sample_id, add):
        """One path walk over the trees tree_ids names (see
        tree.update_paths); in eager mode each tagged node is then rebuilt."""
        trees = [self.trees[t] for t in tree_ids]
        for tree, tagged in zip(trees, update_paths(trees, sample_id, add)):
            if tagged is not None and not self.lazy:
                tree.rebuild_node(tagged)

    def unlearn_batch(self, ids, finalize=False):
        """Delete many samples in one grouped pass per tree; optionally
        flush tagged subtrees afterwards.

        Each tree removes its share of the batch in a single traversal
        (Tree.delete_group) that splits the group at each node, so
        per-node grid updates amortize across the batch; the batch's rows
        are then zeroed in one step.  The id list is validated up front:
        one unknown, dead, or repeated id rejects the whole batch before
        anything is deleted.
        """
        ids = [int(i) for i in ids]
        seen = set()
        for sample_id in ids:
            if not self.ds.is_live(sample_id):
                raise KeyError("batch rejected: sample id %d is not live" % sample_id)
            if sample_id in seen:
                raise KeyError("batch rejected: sample id %d repeated" % sample_id)
            seen.add(sample_id)
        batch = np.asarray(ids, np.int64)
        groups = group_by_tree(batch, self.assignment[batch], len(self.trees))
        for t, group in enumerate(groups):
            tagged = self.trees[t].delete_group(group)
            if not self.lazy:
                for node in tagged:
                    self.trees[t].rebuild_node(node)
        self.assignment[batch] = -1
        self.ds.tombstone_many(batch)
        if finalize:
            self.flush()

    def flush(self):
        """Rebuild every tagged subtree in every tree."""
        for t in self.trees:
            t.flush()

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
