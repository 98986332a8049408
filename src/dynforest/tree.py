"""Single extremely randomized tree with cached split statistics and a
lazy rebuild protocol for additions and deletions.

Structure
---------
Every node keeps the ids of the training samples it covers and their
positive count n_pos (its size n is len(ids)).  A splittable node
additionally caches, for each of p candidate attributes, s sorted
candidate thresholds together with the number of covered samples (b)
and covered positives (c) at or below each threshold, plus the
resulting criterion scores.  The chosen split is the first grid cell
attaining the minimum score, scanning slots in draw order and
thresholds in ascending order.

Updates
-------
Additions and deletions walk the root-to-leaf path, patching ids, counts
and the cached grids in O(s) per slot.  Deletion is one walk for one id
or many: delete() removes a group of one, and a larger group is split
at each node by that node's split, so each path node is patched once.
A node whose recorded value range for some slot is invalidated (a
boundary value deleted, an outside value added) redraws that slot's
thresholds uniformly over the new range and recounts them; this is what
keeps the updated tree distributionally identical to one retrained from
scratch.  When the winning grid cell moves, the node is *tagged*: its
subtree is discarded but nothing is rebuilt yet.

Tagged nodes still receive id and count updates.  A query reaching a
tagged node materializes exactly one fresh level (redrawing attributes
and thresholds), untags it, tags the new children, and walks on.
Queries are batched across trees: route_row (one row) and route_rows (a
batch) take a list of trees, route down each tree in turn to the leaves
and tagged nodes reached, then grow every reached tagged node of all the
trees one level in one materialize() step, and repeat from there.
Tree.query and Tree.query_many are one-tree calls into them, and
Forest.predict and predict_many pass the whole forest.  materialize()
feeds the split kernel calls of at most as many samples as the largest
root among its trees holds, so no call allocates more than a build or a
flush of those trees already does.  flush() rebuilds every tagged
subtree eagerly.

Growth is level by level: build, flush, rebuild_node and materialize()
all go through _split_level, which splits a whole frontier of nodes in
one vectorized pass and returns the next frontier (flush puts every
tagged node of the tree in the first one).

Randomness
----------
Build, flush and rebuild_node consume the tree's one generator (the tree
stream) level by level.  A frontier of m splittable nodes, in frontier
order, reads one (m, d) block of uniforms, whose p smallest keys in each
row give that node's attribute subset, then one block of s uniforms per
non-degenerate slot, node by node and in slot order, scaled onto the
slot's range [amin, amax] and sorted.  A degenerate slot draws nothing.
Range resampling on the update path draws s uniforms per affected slot,
in slot order, and every tag event draws one 64-bit key for the tagged
node.

Growth driven by queries reads node keys instead.  A node materialized by
a query reads d + p*s uniforms (the attribute keys, then s per slot; a
degenerate slot's block goes unused) from a Philox4x64 stream keyed by
its key alone, counter at zero (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11), and its children's keys are the next two raw
words of that stream.  Queries may reach tagged nodes in any order and
in any grouping: one row or a batch, one tree or many, one kernel call or
several.  A node's draws are a function of its key alone and the
kernel's arithmetic is row-wise per node, so the grown trees are the
same bits either way, and growing all trees' nodes together equals
growing them tree by tree.  The eager paths keep the tree stream, which
keeps clean training free of per-node generator set-up.

A node re-created after a new tag never reuses a draw conditioned on old
data.  Its key is the next word of the tree stream at the tag event,
which is independent of the data and of every earlier draw, and a
child's key is a part of its parent's stream that no split read.  So
whatever the data did between tag and query, the node's draws are fresh
i.i.d. uniforms independent of everything that decided to grow it.

This differs from a depth-first builder only in which stream positions a
node reads, not in the law of what it reads.  Each node's attribute
subset is uniform over the p-subsets of the d attributes, because the
p smallest of d i.i.d. uniform keys are a uniform p-subset, and its
thresholds are s i.i.d. uniform draws over its range.  Which positions a
node reads is fixed by the data and by earlier draws (the splits above
it and the frontier before it) before those positions are read, so
given everything that came before, a node's draws are fresh i.i.d.
uniforms independent of it.  Every node's draws therefore have the same
conditional law as under any other fixed visiting order, and the grown
tree has the same distribution as one grown depth first; only the
seed-to-tree map differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import criterion as crit
from .audit import AuditReport


@dataclass
class TreeParams:
    """Growth parameters shared by every tree in a forest.

    n_attrs=None resolves to ceil(sqrt(d)) at build time.  A node becomes
    a leaf when it reaches max_depth, holds fewer than min_split_size
    samples, is label-pure, or every drawn attribute is constant across
    its samples.
    """

    max_depth: int = 20
    n_thresholds: int = 30
    n_attrs: int | None = None
    min_split_size: int = 10
    criterion: str = "gini"

    def validate(self, d):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.n_thresholds < 1:
            raise ValueError("n_thresholds must be >= 1")
        if self.min_split_size < 2:
            raise ValueError("min_split_size must be >= 2")
        if self.criterion not in crit.CRITERIA:
            raise ValueError("unknown criterion %r" % (self.criterion,))
        if self.n_attrs is not None and not 1 <= self.n_attrs <= d:
            raise ValueError("n_attrs must be in [1, %d], got %r" % (d, self.n_attrs))

    def resolve_attrs(self, d):
        if self.n_attrs is None:
            return min(d, math.ceil(math.sqrt(d)))
        return self.n_attrs


@dataclass
class Telemetry:
    """Work counters accumulated across tree operations.

    nodes_updated           path nodes whose cached stats were patched
    subtree_samples_rebuilt samples covered by rebuilt (or materialized)
                            tagged nodes
    range_resample_samples  samples in nodes where some slot's range
                            changed and its thresholds were redrawn
    attrs_resampled         individual slots redrawn
    nodes_materialized      tagged nodes grown by queries
    tags_moved              nodes tagged because their winning cell moved
    tags_stopped            nodes tagged because a stop rule began or
                            ceased to hold
    tags_widened            grid leaves tagged by a widening add
    """

    nodes_updated: int = 0
    subtree_samples_rebuilt: int = 0
    range_resample_samples: int = 0
    attrs_resampled: int = 0
    nodes_materialized: int = 0
    tags_moved: int = 0
    tags_stopped: int = 0
    tags_widened: int = 0

    def reset(self):
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


class SlotBlock:
    """Dense per-node storage for p attribute slots with s thresholds each."""

    __slots__ = ("attrs", "amin", "amax", "thr", "b", "c", "score")

    def __init__(self, attrs, amin, amax, thr, b, c, score=None):
        self.attrs = attrs
        self.amin = amin
        self.amax = amax
        self.thr = thr
        self.b = b
        self.c = c
        self.score = score

    @property
    def p(self):
        return len(self.attrs)


class Node:
    """Tree node.  Leaves may keep their slot grid (all-degenerate draw);
    tagged nodes have no children and best_k == -1.  key is the 64-bit key
    of a tagged node's own draws; it is not read once the node is untagged."""

    __slots__ = ("depth", "ids", "n_pos", "slots", "best_k", "best_i", "best_w",
                 "left", "right", "tagged", "key")

    def __init__(self, depth, ids, n_pos):
        self.depth = depth
        self.ids = ids
        self.n_pos = n_pos
        self.slots = None
        self.best_k = -1
        self.best_i = -1
        self.best_w = 0.0
        self.left = None
        self.right = None
        self.tagged = False
        self.key = None

    @property
    def n(self):
        return len(self.ids)

    @property
    def is_leaf(self):
        return self.left is None and not self.tagged


def sample_thresholds(a_min, a_max, s, rng):
    """Draw s candidate thresholds uniformly over [a_min, a_max], sorted.

    A degenerate range yields s copies of the single value (the slot is
    unusable but keeps its shape).
    """
    if a_min == a_max:
        return np.full(s, a_min)
    thr = rng.uniform(a_min, a_max, s)
    thr.sort()
    return thr


def prefix_counts(values, positive, thresholds):
    """Count, per sorted threshold, the samples at or below it.

    For each value, binary-search the first threshold at or above it,
    histogram those insertion points, and prefix-sum the histogram.

    Parameters
    ----------
    values : ndarray of float, shape (m,)
    positive : ndarray of bool, shape (m,)
    thresholds : ndarray of float, shape (s,), sorted ascending

    Returns
    -------
    b, c : ndarray of int64, shape (s,)
        b[i] = #{values <= thresholds[i]}, c[i] = positives among them.
    """
    s = len(thresholds)
    idx = np.searchsorted(thresholds, values, side="left")
    b = np.bincount(idx, minlength=s + 1)[:s].cumsum()
    c = np.bincount(idx[positive], minlength=s + 1)[:s].cumsum()
    return b, c


def _argmin_grid(score):
    """First (slot, threshold) cell attaining the minimum score."""
    flat = int(np.argmin(score))
    return divmod(flat, score.shape[1])


class Tree:
    """One extremely randomized tree over a Dataset.

    Use build_tree() or Forest.train() to construct; add/delete/query
    implement the lazy protocol described in the module docstring.
    """

    def __init__(self, params, ds, rng):
        params.validate(ds.n_attrs)
        self.params = params
        self.ds = ds
        self.rng = rng
        self.d = ds.n_attrs
        self.p = params.resolve_attrs(self.d)
        self.s = params.n_thresholds
        self.root = None
        self.n_tagged = 0
        self.telemetry = Telemetry()
        # query-grown nodes read a Philox stream keyed by their own key;
        # one bit generator and one state dict serve every such node
        self._philox = np.random.Philox(key=0)
        self._keyed = np.random.Generator(self._philox)
        self._philox_state = self._philox.state

    # -- construction ---------------------------------------------------

    def build(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        self.root = Node(0, ids, int((self.ds.y[ids] == 1).sum()))
        self._grow([self.root])
        return self

    def _stop(self, depth, n, n_pos):
        return (depth >= self.params.max_depth
                or n < self.params.min_split_size
                or n_pos == 0 or n_pos == n)

    def _rescore(self, node):
        """Refresh the score grid from cached counts (n or counts changed)."""
        blk = node.slots
        if node.n == 0:
            blk.score = np.full((blk.p, self.s), np.inf)
            return
        sc = crit.score_matrix(blk.b, blk.c, node.n, node.n_pos, self.params.criterion)
        sc[blk.amin == blk.amax] = np.inf
        blk.score = sc

    def _split_level(self, nodes, draw):
        """Split every non-stopping node of a frontier in one vectorized pass.

        Each node of `nodes` must be fresh: untagged, childless and without
        a grid.  Splittable nodes get their grid and best split (a node
        whose drawn attributes are all constant keeps its grid and stays a
        leaf); the others stay slotless leaves.  Returns the new children,
        left before right, node by node: the next frontier.

        draw(grow) supplies the uniforms of the m splittable nodes: an
        (m, d) block of attribute keys, and a function that maps the (m, p)
        mask of degenerate slots to s uniforms for each other slot, in
        node then slot order.
        """
        grow = [node for node in nodes if not self._stop(node.depth, node.n, node.n_pos)]
        if not grow:
            return []
        m, p, s = len(grow), self.p, self.s
        X = self.ds.X
        keys, thresholds = draw(grow)
        lens = np.array([node.n for node in grow])
        n_pos = np.array([node.n_pos for node in grow])
        ids = np.concatenate([node.ids for node in grow])
        positive = self.ds.y[ids] == 1
        starts = np.concatenate(([0], lens[:-1].cumsum()))
        # each node's attribute subset: the p smallest of d uniform keys
        attrs = np.argpartition(keys, p - 1, axis=1)[:, :p]
        attrs.sort(axis=1)
        vals = X[ids[:, None], np.repeat(attrs, lens, axis=0)]
        amin = np.minimum.reduceat(vals, starts, axis=0)
        amax = np.maximum.reduceat(vals, starts, axis=0)
        flat = amin == amax
        # s uniform thresholds per non-degenerate slot, drawn as
        # sample_thresholds draws them; a degenerate slot draws nothing
        thr = np.repeat(amin[:, :, None], s, axis=2)
        lo, hi = amin[~flat], amax[~flat]
        drawn = lo[:, None] + (hi - lo)[:, None] * thresholds(flat)
        drawn.sort(axis=1)
        thr[~flat] = drawn
        # b/c per (node, slot, threshold) cell, as prefix_counts counts
        # them: histogram each value's number of thresholds strictly below
        # it into (node, slot, bin) and prefix-sum the bins
        below = (np.repeat(thr.transpose(2, 0, 1), lens, axis=1) < vals).sum(
            axis=0, dtype=np.min_scalar_type(s))
        cell = np.repeat(np.arange(0, m * p * (s + 1), s + 1).reshape(m, p), lens, axis=0)
        cell += below
        size = m * p * (s + 1)
        b = np.bincount(cell.ravel(), minlength=size).reshape(m, p, s + 1)[:, :, :s]
        c = np.bincount(cell[positive].ravel(), minlength=size).reshape(m, p, s + 1)[:, :, :s]
        b = b.cumsum(axis=2)
        c = c.cumsum(axis=2)
        score = crit.score_matrix(b, c, lens[:, None, None], n_pos[:, None, None],
                                  self.params.criterion)
        score[flat] = np.inf
        best_k, best_i = np.divmod(score.reshape(m, p * s).argmin(axis=1), s)
        rows = np.arange(m)
        usable = np.isfinite(score[rows, best_k, best_i]).tolist()
        best_w = thr[rows, best_k, best_i]
        # stable partition by (node, side) keeps each child's ids in order
        right = X[ids, np.repeat(attrs[rows, best_k], lens)] > np.repeat(best_w, lens)
        side = 2 * np.repeat(rows, lens) + right
        ids = ids[np.argsort(side, kind="stable")]
        bounds = np.concatenate(([0], np.bincount(side, minlength=2 * m).cumsum())).tolist()
        side_pos = np.bincount(side[positive], minlength=2 * m).tolist()
        best_k, best_i, best_w = best_k.tolist(), best_i.tolist(), best_w.tolist()
        children = []
        for j, node in enumerate(grow):
            node.slots = SlotBlock(attrs[j].copy(), amin[j].copy(), amax[j].copy(),
                                   thr[j].copy(), b[j].copy(), c[j].copy(),
                                   score[j].copy())
            if not usable[j]:
                continue
            node.best_k = best_k[j]
            node.best_i = best_i[j]
            node.best_w = best_w[j]
            start, mid, end = bounds[2 * j:2 * j + 3]
            node.left = Node(node.depth + 1, ids[start:mid].copy(), side_pos[2 * j])
            node.right = Node(node.depth + 1, ids[mid:end].copy(), side_pos[2 * j + 1])
            children.append(node.left)
            children.append(node.right)
        return children

    def _stream_draws(self, grow):
        """Draws from the tree stream, in frontier order: one (m, d) block
        of attribute keys, then one block of s uniforms per non-degenerate
        slot."""
        rng = self.rng
        return (rng.random((len(grow), self.d)),
                lambda flat: rng.random((np.count_nonzero(~flat), self.s)))

    def _key_stream(self, key, out):
        """Fill out with uniforms from the Philox stream keyed by key, its
        counter at zero; returns the stream's next two raw words."""
        state = self._philox_state
        state["state"]["key"][0] = key
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4
        self._philox.state = state
        self._keyed.random(out=out)
        return self._philox.random_raw(2).tolist()

    def _grow(self, level):
        """Grow fresh nodes into full subtrees, one frontier at a time,
        drawing from the tree stream."""
        while level:
            level = self._split_level(level, self._stream_draws)

    def _untag(self, nodes):
        """Untag nodes and drop their stale grids; returns them, now fresh."""
        for node in nodes:
            self.telemetry.subtree_samples_rebuilt += node.n
            node.tagged = False
            node.slots = None
        self.n_tagged -= len(nodes)
        return nodes

    # -- tag bookkeeping --------------------------------------------------

    def _tag(self, node, cause):
        """Tag node, discarding its subtree, and give it a fresh key from
        the tree stream; counts the tag under the Telemetry field cause.
        Returns node."""
        # the discarded subtree may itself hold tagged nodes: untag them so
        # rebuild_node refuses them, and settle the count
        stack = [node.left, node.right] if node.left is not None else []
        while stack:
            child = stack.pop()
            if child.tagged:
                child.tagged = False
                self.n_tagged -= 1
            if child.left is not None:
                stack.extend((child.left, child.right))
        node.tagged = True
        node.left = None
        node.right = None
        node.best_k = -1
        node.best_i = -1
        node.best_w = 0.0
        node.key = self.rng.bit_generator.random_raw()
        self.n_tagged += 1
        setattr(self.telemetry, cause, getattr(self.telemetry, cause) + 1)
        return node

    def _patch_counts(self, node, x, label):
        """Count one added sample into a node's cached count grid."""
        blk = node.slots
        covered = blk.thr >= x[blk.attrs][:, None]
        blk.b[covered] += 1
        if label:
            blk.c[covered] += 1

    def _resample_slots(self, node, which):
        """Redraw thresholds (and recount) for the flagged slots."""
        blk = node.slots
        ids = node.ids
        positive = self.ds.y[ids] == 1
        for k in np.flatnonzero(which):
            blk.thr[k] = sample_thresholds(blk.amin[k], blk.amax[k], self.s, self.rng)
            blk.b[k], blk.c[k] = prefix_counts(self.ds.X[ids, blk.attrs[k]],
                                               positive, blk.thr[k])
        self.telemetry.attrs_resampled += int(which.sum())
        self.telemetry.range_resample_samples += node.n

    # -- update operations ------------------------------------------------

    def delete(self, sample_id):
        """Remove one sample from the tree's path statistics.

        Returns the node that became tagged, or None.  The sample must
        still be live in the dataset when this is called.
        """
        tagged = self.delete_group([sample_id])
        return tagged[0] if tagged else None

    def delete_group(self, group):
        """Remove a set of samples in one traversal; returns the nodes that
        became tagged.

        Equivalent in distribution to deleting them one by one; grouping
        lets the per-node grid work amortize across the batch.
        """
        group = np.asarray(group, dtype=np.int64)
        tagged = []
        if len(group):
            member = np.zeros(self.ds.next_id, bool)
            member[group] = True
            self._delete_group(self.root, group, self.ds.y[group] == 1, member, tagged)
        return tagged

    def _delete_group(self, node, group, labels, member, tagged):
        keep = node.ids[~member[node.ids]]
        missing = len(group) - (len(node.ids) - len(keep))
        if missing:
            raise ValueError("%d of %d ids not present at depth %d; tree and "
                             "routing disagree" % (missing, len(group), node.depth))
        node.ids = keep
        n_pos = np.count_nonzero(labels)
        node.n_pos -= n_pos
        blk = node.slots
        if blk is not None:
            vals = self.ds.X[group[:, None], blk.attrs]
            covered = blk.thr >= vals[:, :, None]
            db = covered.sum(axis=0)
            blk.b -= db
            if n_pos:
                blk.c -= db if n_pos == len(group) else covered[labels].sum(axis=0)
        self.telemetry.nodes_updated += 1
        if node.tagged:
            return
        if node.left is not None and self._stop(node.depth, node.n, node.n_pos):
            tagged.append(self._tag(node, "tags_stopped"))
            return
        if blk is not None:
            self._shrink_ranges(node, vals)
            self._rescore(node)
        if node.left is None:
            return
        if self._best_moved(node):
            tagged.append(self._tag(node, "tags_moved"))
            return
        go_left = vals[:, node.best_k] <= node.best_w
        for child, side in ((node.left, go_left), (node.right, ~go_left)):
            routed = np.count_nonzero(side)
            if routed == len(group):
                self._delete_group(child, group, labels, member, tagged)
            elif routed:
                self._delete_group(child, group[side], labels[side], member, tagged)

    def _shrink_ranges(self, node, vals):
        """Rescan the ranges of slots where a removed value (a row of vals)
        sat on a boundary; redraw the slots whose range shrank."""
        blk = node.slots
        hit = (vals == blk.amin) | (vals == blk.amax)
        if node.n == 0 or not hit.any():
            return
        hit = hit.any(axis=0)
        cols = blk.attrs[hit]
        sub = self.ds.X[node.ids[:, None], cols]
        new_min = sub.min(axis=0)
        new_max = sub.max(axis=0)
        changed = (new_min != blk.amin[hit]) | (new_max != blk.amax[hit])
        if not changed.any():
            return
        which = np.zeros(blk.p, bool)
        which[np.flatnonzero(hit)[changed]] = True
        blk.amin[which] = new_min[changed]
        blk.amax[which] = new_max[changed]
        self._resample_slots(node, which)

    def _best_moved(self, node):
        """Did the winning grid cell change identity or threshold value?"""
        blk = node.slots
        k, i = _argmin_grid(blk.score)
        if not np.isfinite(blk.score[k, i]):
            return True
        return (k != node.best_k or i != node.best_i
                or blk.thr[k, i] != node.best_w)

    def add(self, sample_id):
        """Insert a live sample into the tree's path statistics.

        Returns the node that became tagged, or None.
        """
        x = self.ds.X[sample_id]
        label = int(self.ds.y[sample_id])
        node = self.root
        if (node.ids == sample_id).any():
            raise ValueError("sample %d already present in tree" % sample_id)
        while True:
            node.ids = np.append(node.ids, sample_id)
            node.n_pos += label
            if node.slots is not None:
                self._patch_counts(node, x, label)
            self.telemetry.nodes_updated += 1
            if node.tagged:
                return None
            if node.slots is not None:
                xs = x[node.slots.attrs]
                widened = (xs < node.slots.amin) | (xs > node.slots.amax)
                if node.left is None:
                    # leaf kept its grid because every slot was degenerate;
                    # a widening value makes it splittable again
                    if widened.any():
                        return self._tag(node, "tags_widened")
                    self._rescore(node)
                    return None
                if widened.any():
                    blk = node.slots
                    blk.amin[widened] = np.minimum(blk.amin[widened], xs[widened])
                    blk.amax[widened] = np.maximum(blk.amax[widened], xs[widened])
                    self._resample_slots(node, widened)
                self._rescore(node)
                if self._best_moved(node):
                    return self._tag(node, "tags_moved")
                axis = int(node.slots.attrs[node.best_k])
                node = node.left if x[axis] <= node.best_w else node.right
                continue
            # slotless leaf: tag once every stop criterion has lifted
            if not self._stop(node.depth, node.n, node.n_pos):
                return self._tag(node, "tags_stopped")
            return None

    # -- queries ----------------------------------------------------------

    def query(self, x):
        """Route a feature vector (a sequence or a 1-d array) to its leaf;
        returns (n, n_pos) there.

        Grows (one level at a time) any tagged node on the path.
        """
        leaf, = route_row([self], x)
        return len(leaf.ids), leaf.n_pos

    def query_many(self, X):
        """Route a batch of rows to their leaves; returns (n, n_pos) arrays.

        Rows go down the tree together, stopping at leaves and tagged
        nodes; every tagged node some row reaches is grown one level, all
        in one kernel call, and the rows there go on.  A node grown by a
        query draws from its own key, so the tree grows exactly as
        row-by-row query() calls would grow it, in any row order.
        """
        n, n_pos = route_rows([self], np.asarray(X, dtype=np.float64))
        return n[0], n_pos[0]

    # -- maintenance --------------------------------------------------------

    def rebuild_node(self, node):
        """Eagerly rebuild one tagged node's subtree in place."""
        if not node.tagged:
            raise ValueError("node at depth %d is not tagged" % node.depth)
        self._grow(self._untag([node]))

    def flush(self):
        """Rebuild every tagged subtree, all of them level by level together;
        afterwards no tags remain."""
        tagged = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.tagged:
                tagged.append(node)
            elif node.left is not None:
                stack.append(node.right)
                stack.append(node.left)
        self._grow(self._untag(tagged))
        assert self.n_tagged == 0

    def node_count(self):
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if node.left is not None:
                stack.append(node.right)
                stack.append(node.left)
        return count


# -- query routing ----------------------------------------------------------


def _descend(node, x):
    """Route row x from node down to the first leaf or tagged node."""
    while node.left is not None:
        axis = int(node.slots.attrs[node.best_k])
        node = node.left if x[axis] <= node.best_w else node.right
    return node


def route_row(trees, x):
    """Route one row down each tree to its leaf; returns the leaves, in tree
    order.

    The row goes down one tree at a time to a leaf or a tagged node.  Then
    every tagged node reached, in all trees, grows one level in one
    materialize() step, and the row goes on from there; this repeats until
    no tagged node is reached.
    """
    reached = [_descend(tree.root, x) for tree in trees]
    pending = [t for t, node in enumerate(reached) if node.tagged]
    while pending:
        materialize([(trees[t], reached[t]) for t in pending])
        for t in pending:
            reached[t] = _descend(reached[t], x)
        pending = [t for t in pending if reached[t].tagged]
    return reached


def _descend_many(t, node, rows, X, out_n, out_pos, tagged):
    """Route the given rows of X from node down to leaves and tagged nodes.

    A leaf writes its (n, n_pos) into out_n and out_pos at its rows; a
    tagged node is appended to tagged as (t, node, rows reaching it).
    """
    stack = [(node, rows)]
    while stack:
        node, rows = stack.pop()
        if node.left is None:
            if node.tagged:
                tagged.append((t, node, rows))
            else:
                out_n[rows] = len(node.ids)
                out_pos[rows] = node.n_pos
            continue
        go_left = X[rows, int(node.slots.attrs[node.best_k])] <= node.best_w
        left, right = rows[go_left], rows[~go_left]
        if len(left):
            stack.append((node.left, left))
        if len(right):
            stack.append((node.right, right))


def route_rows(trees, X):
    """Route the rows of a float matrix X down each tree to their leaves;
    returns (n, n_pos) arrays of shape (len(trees), len(X)).

    The rows go down one tree at a time to leaves and tagged nodes.  Then
    the tagged frontier of all trees grows one level in one materialize()
    step, and the rows there go on; this repeats until no row reaches a
    tagged node.
    """
    m = len(X)
    out_n = np.empty((len(trees), m), np.int64)
    out_pos = np.empty((len(trees), m), np.int64)
    frontier = []
    if m:
        for t, tree in enumerate(trees):
            _descend_many(t, tree.root, np.arange(m), X, out_n[t], out_pos[t], frontier)
    while frontier:
        materialize([(trees[t], node) for t, node, _ in frontier])
        reached, frontier = frontier, []
        for t, node, rows in reached:
            _descend_many(t, node, rows, X, out_n[t], out_pos[t], frontier)
    return out_n, out_pos


def materialize(reached):
    """Grow one level at each tagged node of reached, a list of distinct
    (tree, node) pairs, untag the nodes and tag their children.

    Every node draws from its own key and its children's keys come from
    that key's stream, so the grown trees do not depend on which nodes
    share a call.  The trees must share one Dataset and one TreeParams.
    The nodes go to the split kernel in calls of at most as many samples
    as the largest root among their trees holds, the most a build or
    flush call can see.  Counters and tag counts go to each node's tree.
    """
    kernel = reached[0][0]
    cap = 0
    for tree, _ in reached:
        if tree.ds is not kernel.ds or (tree.params is not kernel.params
                                        and tree.params != kernel.params):
            raise ValueError("trees grown together must share one Dataset "
                             "and one TreeParams")
        cap = max(cap, tree.root.n)
    for tree, node in reached:
        tree._untag([node])
        tree.telemetry.nodes_materialized += 1
    call, rows = [], 0
    for tree, node in reached:
        if call and rows + node.n > cap:
            _split_keyed(kernel, call)
            call, rows = [], 0
        call.append((tree, node))
        rows += node.n
    _split_keyed(kernel, call)


def _split_keyed(kernel, pairs):
    """One kernel call over the (tree, node) pairs' fresh nodes, each
    drawing from its own key; tags the children with the next two words of
    their parent's stream."""
    d, p, s = kernel.d, kernel.p, kernel.s
    child_keys = {}

    def draw(grow):
        u = np.empty((len(grow), d + p * s))
        for row, node in zip(u, grow):
            child_keys[node] = kernel._key_stream(node.key, row)
        thr = u[:, d:].reshape(len(grow), p, s)
        return u[:, :d], lambda flat: thr[~flat]

    kernel._split_level([node for _, node in pairs], draw)
    for tree, node in pairs:
        if node.left is not None:
            node.left.tagged = node.right.tagged = True
            node.left.key, node.right.key = child_keys[node]
            tree.n_tagged += 2


def build_tree(ds, ids, params, rng=None):
    """Grow a tree over the given sample ids.  rng defaults to a fresh
    seeded generator so standalone builds are reproducible."""
    if rng is None:
        rng = np.random.default_rng(0)
    return Tree(params, ds, rng).build(ids)


# -- audit ----------------------------------------------------------------


def _audit_node(tree, node, path, report, leaf_ids):
    ds = tree.ds
    report.nodes_checked += 1
    ids = node.ids
    if len(np.unique(ids)) != len(ids):
        report.flag(path, "duplicate ids in node")
    true_pos = sum(int(ds.y[int(i)]) for i in ids)
    if node.n_pos != true_pos:
        report.flag(path, "n_pos mismatch", "stored=%d actual=%d" % (node.n_pos, true_pos))

    blk = node.slots
    if blk is not None:
        vals = ds.X[ids[:, None], blk.attrs] if len(ids) else np.empty((0, blk.p))
        positive = ds.y[ids] == 1
        for k in range(blk.p):
            tag = "%s slot %d (attr %d)" % (path, k, blk.attrs[k])
            thr = blk.thr[k]
            if not (np.diff(thr) >= 0).all():
                report.flag(tag, "thresholds not sorted")
            if not node.tagged and len(ids):
                if blk.amin[k] != vals[:, k].min() or blk.amax[k] != vals[:, k].max():
                    report.flag(tag, "stale range",
                                "stored [%g, %g] actual [%g, %g]"
                                % (blk.amin[k], blk.amax[k],
                                   vals[:, k].min(), vals[:, k].max()))
                if thr.min() < blk.amin[k] or thr.max() > blk.amax[k]:
                    report.flag(tag, "thresholds outside range")
            # recount from raw values by direct comparison, not binary search
            b_true = (vals[:, k][:, None] <= thr[None, :]).sum(axis=0)
            c_true = (vals[positive, k][:, None] <= thr[None, :]).sum(axis=0)
            if not np.array_equal(blk.b[k], b_true):
                report.flag(tag, "b counts stale",
                            "stored=%s actual=%s" % (blk.b[k], b_true))
            if not np.array_equal(blk.c[k], c_true):
                report.flag(tag, "c counts stale",
                            "stored=%s actual=%s" % (blk.c[k], c_true))
            if not node.tagged and len(ids) > 0:
                # reference totals come from the ids themselves so the check
                # cannot crash on an already-inconsistent node
                degenerate = blk.amin[k] == blk.amax[k]
                for i in range(tree.s):
                    want = np.inf if degenerate else crit.CRITERIA[tree.params.criterion](
                        crit.SplitCounts(int(b_true[i]), int(c_true[i]),
                                         len(ids) - int(b_true[i]),
                                         true_pos - int(c_true[i])))
                    got = blk.score[k, i]
                    if want == np.inf:
                        if np.isfinite(got):
                            report.flag(tag, "score should be +inf", "i=%d got=%g" % (i, got))
                    elif abs(got - want) > 1e-9:
                        report.flag(tag, "score stale",
                                    "i=%d stored=%.12g recomputed=%.12g" % (i, got, want))

    if node.tagged:
        if node.left is not None or node.right is not None:
            report.flag(path, "tagged node has children")
        if node.best_k != -1:
            report.flag(path, "tagged node keeps a best split")
        if node.key is None:
            report.flag(path, "tagged node without a draw key")
        leaf_ids.append(ids)
        return
    if node.left is None:
        if node.right is not None:
            report.flag(path, "half-linked children")
        if node.best_k != -1:
            report.flag(path, "leaf keeps a best split")
        leaf_ids.append(ids)
        return

    if blk is None:
        report.flag(path, "split node without slots")
        return
    k, i = _argmin_grid(blk.score)
    if (k, i) != (node.best_k, node.best_i):
        report.flag(path, "best split not the grid argmin",
                    "stored (%d,%d) argmin (%d,%d)" % (node.best_k, node.best_i, k, i))
    elif blk.thr[k, i] != node.best_w:
        report.flag(path, "best threshold value stale")
    if not np.isfinite(blk.score[node.best_k, node.best_i]):
        report.flag(path, "split on an unusable slot")
    axis = int(blk.attrs[node.best_k])
    go_left = ds.X[ids, axis] <= node.best_w
    want_left = np.sort(ids[go_left])
    want_right = np.sort(ids[~go_left])
    if not np.array_equal(np.sort(node.left.ids), want_left):
        report.flag(path, "left child ids do not match the split")
    if not np.array_equal(np.sort(node.right.ids), want_right):
        report.flag(path, "right child ids do not match the split")
    for child, lab in ((node.left, ".L"), (node.right, ".R")):
        if child.depth != node.depth + 1:
            report.flag(path + lab, "bad depth")
        _audit_node(tree, child, path + lab, report, leaf_ids)


def audit_tree(tree, label="tree"):
    """Recompute every cached statistic from raw data and report drift.

    Checks id conservation, counts, ranges (on untagged nodes), per-cell
    b/c counts against direct comparison counting, criterion scores
    against the scalar reference, argmin consistency of stored splits,
    and child partitions.  Returns an AuditReport.
    """
    report = AuditReport()
    leaf_ids = []
    _audit_node(tree, tree.root, label, report, leaf_ids)
    union = np.sort(np.concatenate(leaf_ids)) if leaf_ids else np.empty(0, np.int64)
    if not np.array_equal(union, np.sort(tree.root.ids)):
        report.flag(label, "leaf ids do not partition the root ids",
                    "%d across leaves vs %d at root" % (len(union), len(tree.root.ids)))
    tags = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        tags += node.tagged
        if node.left is not None:
            stack.extend((node.left, node.right))
    if tags != tree.n_tagged:
        report.flag(label, "tag counter drift", "counted %d stored %d" % (tags, tree.n_tagged))
    return report
