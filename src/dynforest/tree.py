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
thresholds in ascending order.  best_k and best_i locate that cell in
the grid, and update decisions compare against them; a split node also
stores the cell's attribute (axis, a Python int) and threshold (best_w,
a Python float), which every router reads, so that sending a row to a
child indexes no numpy array.

Updates
-------
A single-sample deletion or addition is one walk over the k trees that
hold the sample, update_paths: Forest.delete and Forest.add pass their k
trees, and Tree.delete and Tree.add are one-tree calls into it.  It has
three steps.

  Route.   Each tree's path is walked top down on its current splits; the
           id leaves (or joins) every node's ids and n_pos follows.  The
           walk stops at a tagged node, a leaf, or (deleting) a split node
           whose stop rule now holds.
  Stack.   The grids of every visited node of all k trees are patched at
           once (-1 or +1 in each cell whose threshold is at or above the
           sample's value), tested for range hits (deleting: the value
           sits on a boundary) and widenings (adding: it lies outside),
           scored in one score_matrix call, and each grid's first argmin
           cell is taken.
  Settle.  Each tree goes down its path in order.  A slot whose range
           really changed (rescanned after a hit, or widened) redraws its
           thresholds uniformly over the new range and recounts them, so
           that they stay uniform over the node's current range, and that
           node alone is rescored.  The walk then ends as a per-node walk
           would: at a tagged node or a leaf, or by tagging a split node
           whose stop rule now holds (tags_stopped), a node whose winning
           cell moved (tags_moved: another cell, the same cell at another
           threshold, or no usable cell), or a grid leaf that an added
           value widened (tags_widened).  Nodes the route patched below a
           node tagged here are discarded with its subtree.

Deleting a group (delete_group, Forest.unlearn_batch) keeps a recursive
walk: the group is split at each node by that node's split, so each path
node is patched once.  Both deletion walks then settle each node through
one helper (_settle_deleted), so they apply the same rules, and a group
of one leaves the tree exactly as delete() does.  A tagged node's
subtree is discarded but nothing is rebuilt yet.  Its later regrowth
redraws the candidates whose scores decided to tag it, which biases the
updated tree away from a retrain (tests/test_exactness.py; ROADMAP item
1).

Tagged nodes still receive id and count updates, and a deletion rescans
(without a redraw) the ranges of a tagged or newly stop-tagged node where
the deleted value sat on a boundary, so that no grid keeps a deleted
value.  A node emptied by deletions has no value left to rescan to; its
ranges and thresholds are zeroed.

A query reaching a tagged node materializes exactly one fresh level
(redrawing attributes and thresholds), untags it, tags the new children,
and walks on.  Queries are batched across trees: route_row (one row) and route_rows (a
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

On the update path only the settle step draws, tree by tree and in path
order: s uniforms per redrawn slot, in slot order, then one 64-bit key
for the node the update tags, which an eager forest then rebuilds from
the same stream (rebuild_node).  Routing and stacking draw nothing, so a
tree reads the same draws whether its grids were stacked with other
trees' or not: a k-tree update leaves each tree as k one-tree updates
would.

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

import functools
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
    tagged nodes have no children and best_k == -1.

    A split node's (best_k, best_i) locates its split cell in the grid.
    axis and best_w are that cell's attribute and threshold, stored as a
    Python int and float for routing: a row goes left when
    row[axis] <= best_w.  A node that does not split has axis -1.  key is
    the 64-bit key of a tagged node's own draws; it is not read once the
    node is untagged."""

    __slots__ = ("depth", "ids", "n_pos", "slots", "best_k", "best_i", "best_w",
                 "axis", "left", "right", "tagged", "key")

    def __init__(self, depth, ids, n_pos):
        self.depth = depth
        self.ids = ids
        self.n_pos = n_pos
        self.slots = None
        self.best_k = -1
        self.best_i = -1
        self.best_w = 0.0
        self.axis = -1
        self.left = None
        self.right = None
        self.tagged = False
        self.key = None

    @property
    def n(self):
        return len(self.ids)


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


def _moved(node, k, i):
    """Is cell (k, i) of a split node's current grid not its recorded split:
    unusable, another cell, or the same cell at another threshold value?"""
    blk = node.slots
    return (not math.isfinite(blk.score[k, i]) or k != node.best_k or i != node.best_i
            or blk.thr[k, i] != node.best_w)


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
        """The stop rule, for one node's numbers or for arrays of them."""
        return ((depth >= self.params.max_depth) | (n < self.params.min_split_size)
                | (n_pos == 0) | (n_pos == n))

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
        axis = attrs[rows, best_k]
        # stable partition by (node, side) keeps each child's ids in order
        right = X[ids, np.repeat(axis, lens)] > np.repeat(best_w, lens)
        side = 2 * np.repeat(rows, lens) + right
        ids = ids[np.argsort(side, kind="stable")]
        bounds = np.concatenate(([0], np.bincount(side, minlength=2 * m).cumsum())).tolist()
        side_pos = np.bincount(side[positive], minlength=2 * m).tolist()
        best_k, best_i, best_w, axis = (best_k.tolist(), best_i.tolist(), best_w.tolist(),
                                        axis.tolist())
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
            node.axis = axis[j]
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
        node.axis = -1
        node.key = self.rng.bit_generator.random_raw()
        self.n_tagged += 1
        setattr(self.telemetry, cause, getattr(self.telemetry, cause) + 1)
        return node

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
        return update_paths([self], sample_id, add=False)[0]

    def add(self, sample_id):
        """Insert a live sample into the tree's path statistics.

        Returns the node that became tagged, or None.
        """
        return update_paths([self], sample_id, add=True)[0]

    def delete_group(self, group):
        """Remove a set of samples in one traversal; returns the nodes that
        became tagged.

        Equivalent in distribution to deleting them one by one; grouping
        lets the per-node grid work amortize across the batch.  A group of
        one leaves the tree exactly as delete() does.
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
        hit = None
        if blk is not None:
            vals = self.ds.X[group[:, None], blk.attrs]
            covered = blk.thr >= vals[:, :, None]
            db = covered.sum(axis=0)
            blk.b -= db
            if n_pos:
                blk.c -= db if n_pos == len(group) else covered[labels].sum(axis=0)
            hit = ((vals == blk.amin) | (vals == blk.amax)).any(axis=0)
            if not hit.any():
                hit = None
        tag = self._settle_deleted(node, hit, functools.partial(self._rescored_cell, node))
        if tag is not None:
            tagged.append(tag)
        if node.left is None:
            return
        go_left = vals[:, node.best_k] <= node.best_w
        for child, side in ((node.left, go_left), (node.right, ~go_left)):
            routed = np.count_nonzero(side)
            if routed == len(group):
                self._delete_group(child, group, labels, member, tagged)
            elif routed:
                self._delete_group(child, group[side], labels[side], member, tagged)

    def _rescored_cell(self, node):
        """Rescore node's grid; returns its first argmin cell."""
        self._rescore(node)
        return _argmin_grid(node.slots.score)

    def _settle_deleted(self, node, hit, scored):
        """Settle one node whose ids, n_pos and counts a deletion has
        patched, by the same rules in both deletion walks; returns the node
        if it was tagged here, else None.  The walk goes on below the node
        only if it still has children.

        hit marks the slots where a removed value sat on a range boundary,
        or is None if there are none (or the node has no grid).  scored()
        stores the patched grid's scores and returns their first argmin
        cell; it is called unless a slot is redrawn.
        """
        self.telemetry.nodes_updated += 1
        blk = node.slots
        stopped = node.left is not None and self._stop(node.depth, node.n, node.n_pos)
        if node.tagged or stopped:
            if hit is not None:
                self._rescan_ranges(node, hit)
            return self._tag(node, "tags_stopped") if stopped else None
        if blk is None:
            return None
        which = None if hit is None else self._rescan_ranges(node, hit)
        if which is None:
            cell = scored()
        else:
            self._resample_slots(node, which)
            cell = self._rescored_cell(node)
        if node.left is None or not _moved(node, *cell):
            return None
        return self._tag(node, "tags_moved")

    def _rescan_ranges(self, node, hit):
        """Rescan the ranges of the slots hit marks, so that no range keeps
        a removed value; returns the mask of slots whose range shrank, or
        None.  Nothing is redrawn: a tagged node's grid is dropped when it
        regrows.

        A node's bounds are always values of its live rows, so the last
        row removed from a node sits on every boundary and an emptied node
        always comes here.  With no value left to rescan to, its ranges and
        thresholds are zeroed, as its dead rows are.
        """
        blk = node.slots
        if node.n == 0:
            blk.amin[:] = 0.0
            blk.amax[:] = 0.0
            blk.thr[:] = 0.0
            return None
        cols = blk.attrs[hit]
        sub = self.ds.X[node.ids[:, None], cols]
        new_min = sub.min(axis=0)
        new_max = sub.max(axis=0)
        changed = (new_min != blk.amin[hit]) | (new_max != blk.amax[hit])
        if not changed.any():
            return None
        which = np.zeros(blk.p, bool)
        which[np.flatnonzero(hit)[changed]] = True
        blk.amin[which] = new_min[changed]
        blk.amax[which] = new_max[changed]
        return which

    def _widen_ranges(self, node, xs, widened):
        """Stretch the flagged slots' ranges over an added value (xs holds
        it per slot), redraw those slots and rescore the node; returns its
        first argmin cell."""
        blk = node.slots
        blk.amin[widened] = np.minimum(blk.amin[widened], xs[widened])
        blk.amax[widened] = np.maximum(blk.amax[widened], xs[widened])
        self._resample_slots(node, widened)
        return self._rescored_cell(node)

    def _route_delete(self, sample_id, label, x):
        """Take the id out of each node on its path, top down; returns the
        path.  The walk stops at a tagged node, a leaf, or a split node
        whose stop rule now holds."""
        path = []
        node = self.root
        while True:
            keep = node.ids[node.ids != sample_id]
            if len(keep) == len(node.ids):
                raise ValueError("1 of 1 ids not present at depth %d; tree and "
                                 "routing disagree" % node.depth)
            node.ids = keep
            node.n_pos -= label
            path.append(node)
            if (node.tagged or node.left is None
                    or self._stop(node.depth, len(keep), node.n_pos)):
                return path
            node = node.left if x[node.axis] <= node.best_w else node.right

    def _route_add(self, sample_id, label, x):
        """Append the id to each node on its path, top down; returns the
        path.  The walk stops at a tagged node or a leaf."""
        node = self.root
        if (node.ids == sample_id).any():
            raise ValueError("sample %d already present in tree" % sample_id)
        path = []
        while True:
            node.ids = np.append(node.ids, sample_id)
            node.n_pos += label
            path.append(node)
            if node.tagged or node.left is None:
                return path
            node = node.left if x[node.axis] <= node.best_w else node.right

    def _settle_delete(self, path, grids, j):
        """Settle a routed deletion top down, from row j of the stacked
        grids on; returns the node it tagged, or None."""
        for node in path:
            blk = node.slots
            hit = scored = None
            if blk is not None:
                grids.patch(blk, j)
                hit = grids.flags[j] if grids.flagged[j] else None
                scored = functools.partial(grids.scored, blk, j)
                j += 1
            tag = self._settle_deleted(node, hit, scored)
            if tag is not None or node.left is None:
                return tag
        return None

    def _settle_add(self, path, x, grids, j):
        """Settle a routed addition top down, from row j of the stacked
        grids on; returns the node it tagged, or None."""
        for node in path:
            self.telemetry.nodes_updated += 1
            blk = node.slots
            if blk is not None:
                grids.patch(blk, j)
            if node.tagged:
                return None
            if blk is None:
                # slotless leaf: tag once every stop criterion has lifted
                if not self._stop(node.depth, node.n, node.n_pos):
                    return self._tag(node, "tags_stopped")
                return None
            if grids.flagged[j]:
                if node.left is None:
                    # leaf kept its grid because every slot was degenerate;
                    # a widening value makes it splittable again
                    return self._tag(node, "tags_widened")
                cell = self._widen_ranges(node, x[blk.attrs], grids.flags[j])
            else:
                cell = grids.scored(blk, j)
            j += 1
            if node.left is None:
                return None
            if _moved(node, *cell):
                return self._tag(node, "tags_moved")
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


# -- single-sample updates ---------------------------------------------------


def update_paths(trees, sample_id, add):
    """Delete (add=False) or add (add=True) one sample in each of trees;
    returns, per tree, the node the update tagged or None.

    Routes every tree, stacks the visited grids of all of them into one
    patch and one kernel call, then settles each tree in path order (see
    the module docstring, Updates).  The trees must share one Dataset and
    one TreeParams; an added sample must already be in the Dataset, and a
    deleted one must still be live there.
    """
    ds = trees[0].ds
    x = ds.X[sample_id]
    label = int(ds.y[sample_id])
    row = x.tolist()  # routing compares Python floats faster
    paths = [tree._route_add(sample_id, label, row) if add
             else tree._route_delete(sample_id, label, row) for tree in trees]
    nodes = [node for path in paths for node in path if node.slots is not None]
    grids = _StackedGrids(trees[0], nodes, x, label, add) if nodes else None
    tagged, j = [], 0
    for tree, path in zip(trees, paths):
        tagged.append(tree._settle_add(path, x, grids, j) if add
                      else tree._settle_delete(path, grids, j))
        j += sum(node.slots is not None for node in path)
    return tagged


class _StackedGrids:
    """The grids of every node an update visited, in path order, patched
    by the one sample and scored in one kernel call.

    flags marks per slot a range hit (delete: the value sits on a range
    boundary) or widening (add: the value lies outside the range), and
    cells is each grid's first argmin cell.
    """

    def __init__(self, tree, nodes, x, label, add):
        blks = [node.slots for node in nodes]
        thr = np.array([blk.thr for blk in blks])
        amin = np.array([blk.amin for blk in blks])
        amax = np.array([blk.amax for blk in blks])
        xs = x[np.array([blk.attrs for blk in blks])]
        step = np.where(thr >= xs[:, :, None], 1 if add else -1, 0)
        self.b = np.array([blk.b for blk in blks]) + step
        self.c = np.array([blk.c for blk in blks])
        if label:
            self.c += step
        self.label = label
        self.flags = (xs < amin) | (xs > amax) if add else (xs == amin) | (xs == amax)
        self.flagged = self.flags.any(axis=1).tolist()
        n = np.array([node.n for node in nodes])
        n_pos = np.array([node.n_pos for node in nodes])
        score = crit.score_matrix(self.b, self.c, np.maximum(n, 1)[:, None, None],
                                  n_pos[:, None, None], tree.params.criterion)
        score[amin == amax] = np.inf
        score[n == 0] = np.inf
        k, i = np.divmod(score.reshape(len(nodes), -1).argmin(axis=1), tree.s)
        self.score = score
        self.cells = list(zip(k.tolist(), i.tolist()))

    def patch(self, blk, j):
        """Write row j's patched counts back into its node's grid."""
        blk.b[...] = self.b[j]
        if self.label:
            blk.c[...] = self.c[j]

    def scored(self, blk, j):
        """Store row j's scores in its node's grid; returns its first
        argmin cell."""
        blk.score = self.score[j].copy()
        return self.cells[j]


# -- query routing ----------------------------------------------------------


def _descend(node, x):
    """Route row x from node down to the first leaf or tagged node."""
    while node.left is not None:
        node = node.left if x[node.axis] <= node.best_w else node.right
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
        go_left = X[rows, node.axis] <= node.best_w
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
        if node.axis != -1:
            report.flag(path, "tagged node keeps a split axis", "axis=%r" % (node.axis,))
        if node.key is None:
            report.flag(path, "tagged node without a draw key")
        leaf_ids.append(ids)
        return
    if node.left is None:
        if node.right is not None:
            report.flag(path, "half-linked children")
        if node.best_k != -1:
            report.flag(path, "leaf keeps a best split")
        if node.axis != -1:
            report.flag(path, "leaf keeps a split axis", "axis=%r" % (node.axis,))
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
    if node.axis != axis:
        report.flag(path, "split axis is not the best slot's attribute",
                    "stored %r attribute %d" % (node.axis, axis))
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
