"""Single extremely randomized tree with cached split statistics and a
lazy rebuild protocol for additions and deletions.

Structure
---------
Every node keeps the ids of the training samples it covers and their
positive count n_pos (its size n is len(ids)).  A splittable node
additionally caches a grid: for each of p candidate attributes, s sorted
candidate thresholds together with the number of covered samples (b)
and covered positives (c) at or below each threshold.  Grids live in a
GridPool that the trees of a forest share, as they share the Dataset:
six arrays with one row per gridded node (attrs, amin, amax, thr, and b
and c as int32, since a count never exceeds its node's size), and a free
list.  A node holds its row number (Node.row, -1 without a grid).  A
level's grids are written with one assignment per field; a tag puts the
rows of the subtree it discards on the free list, regrowth puts the
regrown node's own row there, and growth takes freed rows before new
ones.  Row numbers reach no file, prediction or draw.  The chosen split
is the first grid cell attaining the minimum criterion score, scanning
slots in draw order and thresholds in ascending order; a slot whose
range is a single value cannot split.  Scores are never stored: every
decision scores the current counts through one rule, best_cells.
best_k and best_i locate the chosen cell in the grid, and update
decisions compare against them; a split node also stores the cell's
attribute (axis, a Python int) and threshold (best_w, a Python float),
which every router reads, so that sending a row to a child indexes no
numpy array.

Updates
-------
Every update walk settles nodes by two rules, each one function.

  Range change (_range_change).  A slot whose value range the update may
           have changed is rescanned over the node's ids.  A changed range
           is stored and, at an untagged node whose stop rule does not
           hold, its thresholds are redrawn uniformly over it and
           recounted; other nodes only rescan, so that no grid keeps a
           deleted value.  An emptied node's ranges and thresholds are
           zeroed.
  Moved split (_moved_mask).  A split node is tagged (tags_moved) when
           the first argmin cell of its grid, scored after any redraw, is
           not its split: another cell, the same cell at another
           threshold, or no usable cell.

A single-sample deletion or addition is one walk over the k trees that
hold the sample, update_paths: Forest.delete and Forest.add pass their k
trees, and Tree.delete and Tree.add are one-tree calls into it.  It runs
the stacked steps of one delete_groups depth over the k paths, each step
one call for all k trees.

  Route.   Each tree's path is walked top down on its current splits; the
           id leaves (or joins) every node's ids and n_pos follows.  The
           walk stops at a tagged node, a leaf, or (deleting) a split node
           whose stop rule now holds.
  Patch.   The pool rows of every visited node of all k trees are
           gathered, patched at once (-1 or +1 in each cell whose
           threshold is at or above the sample's value) and written back,
           and tested for range hits (deleting: the value sits on a
           boundary) and widenings (adding: it lies outside).
  Range change.  Every path node of all k trees that was hit or emptied
           (deleting) or widened (adding, only at an untagged split node,
           whose exact range the rescan widens by the added value) goes
           through one range change.  Deleting, an untagged node whose
           stop rule does not hold may redraw; adding, every such node
           may.
  Score.   Every path grid is scored in one best_cells call, after the
           redraws, which gives each node's moved test.
  Tag.     Each tree walks its flags top down, drawing nothing.  The walk
           ends at a tagged node or a leaf, or by tagging a split node
           whose stop rule now holds (tags_stopped) or whose split moved
           (tags_moved), or a grid leaf that an added value widened
           (tags_widened).  Nodes below the node tagged here are discarded
           with its subtree: their grid rows go on the free list, and the
           counters forget their redraws (see Randomness).

Deleting a group is one walk over any number of trees, delete_groups:
Forest.unlearn_batch passes every tree with its share of the batch, and
Tree.delete_group is a one-tree call into it.  The group is split at
each node by that node's split, so each visited node is patched once,
and the nodes of all trees go down together a depth at a time, as in
growth.  At each depth:

  Drop.    The groups leave their nodes' ids and n_pos follows.  Every
           node of the depth is checked to hold its group before any
           changes, so a bad group changes no tree.
  Patch.   The grids of all the depth's nodes are patched in one stacked
           count of their groups, with the range hits of each slot.
  Rescan.  All the depth's gridded nodes go through one range change; an
           untagged, unstopped node may redraw.
  Score.   The untagged split nodes are scored in one best_cells call
           per chunk, for the moved test.
  Tag.     Nodes are tagged in frontier order (tags_stopped, tags_moved),
           and each other split node's group goes on to its children.

Stacks are built in chunks of whole nodes, bounded as growth's are (see
Growth), so a large batch over many trees holds a few MB of them at a
time.  oracle.reference_delete_group, the walks' reference, settles one
node per step by its own copy of the two rules.  A tagged node's
subtree is discarded but nothing is rebuilt yet.  Its later regrowth
redraws the candidates whose scores decided to tag it, which biases the
updated tree away from a retrain (tests/test_exactness.py; ROADMAP item
1).

A query reaching a tagged node materializes exactly one fresh level
(redrawing attributes and thresholds), untags it, tags the new children,
and walks on.  Queries are batched across trees, and both routers take a
list of trees.  route_row (one row) routes down each tree in turn to the
leaf or tagged node reached.  route_rows (a batch) moves the (tree, row)
pairs of all trees down together, a depth per step: the pairs are one
array of slots t*m + row in which each node's pairs are one run, so a
step is one gather and one comparison for every run, and the left runs,
then the right runs, are the next step's array, with no sort.  Leaves
write their (n, n_pos) in one scatter per step; pairs at a tagged node
wait.  Once no pair sits at a split node, either router grows every
reached tagged node of all the trees one level in one materialize()
step, one kernel call, and goes on from there.  Tree.query and
Tree.query_many are one-tree calls into them, and Forest.predict and
predict_many pass the whole forest; all four check their rows with
feature_row or feature_rows first.  flush() rebuilds every tagged subtree
eagerly.

Growth
------
Growth is level by level, and the nodes of all trees grow together: one
split-kernel call (_split_level) per frontier step splits a whole
frontier of nodes of any number of trees in one vectorized pass and
returns the next frontier.  grow() takes (tree, fresh nodes) per tree
and grows them into full subtrees: Forest.train passes every root,
Forest.flush every tree's tagged nodes, and an eager Forest's update or
batch the nodes it tagged in all its trees, untagged.  Tree.build and
Tree.flush are one-tree calls into it.
materialize() is one kernel call that grows one level only.  A kernel
call bounds its own memory (see _split_level): no call holds more of its
(s, rows, p) threshold comparison than the build of one tree, and a
frontier of 100 full-size trees is split in chunks of at most CHUNK_ROWS
rows, which the preset's frontiers never reach.

Randomness
----------
Every draw is read from a key through one counter hash, key_words: word i
of a 64-bit key K is SplitMix64's output mix of K + (i + 1) * gamma, the
(i + 1)-th output of SplitMix64 started at K (Steele, Lea and Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014), and a
uniform is a word's top 53 bits.  Every key comes from the forest's seed
and nothing holds a generator, so no draw depends on the order in which
nodes are visited, on how calls batch them, or on what a walk discards.
The layout, for a sample id i:

  seed      word t is tree t's key (tree_keys).
  tree key  word 0 keys the root (plant); word 3i + 1 ranks the tree for
            i, whose k trees are the k ranked lowest (forest.choose_trees,
            at training and at Forest.add); words 3i + 2 and 3i + 3 are
            the call words of deleting and of adding i (CHOOSE, DELETE,
            ADD).
  node key  words 0 to d + p*s - 1 are its growth block, and the next
            two its children's keys.

Growth.  A growing node's block holds d attribute keys, whose p smallest
give its attribute subset, then s uniforms per slot, in slot order,
scaled onto the slot's range and sorted (a flat slot's span is 0, so its
thresholds are its one value).  A tagged node's key comes from the update
that tagged it; growth clears the key of every node it grows.  Train,
flush, eager updates and materialize all grow so, and a subtree is a
function of its key and its data: grown by queries a level a round, in
any order or grouping, it is bit for bit the flushed one.

Updates.  update_paths reads the call word W of each tree it touches, and
delete_groups the delete word of the smallest id of each tree's group, so
a group of one reads what delete() reads.  A visited node has a depth
delta and a rank r, its place among the nodes of its tree the call visits
at that depth, left to right (0 on a single path).  With b = (delta *
2**32 + r) * (p*s + 1), its slot k redraws from words b + k*s to b + k*s
+ s - 1 of W, and a tag keys it with word b + p*s.  Distinct nodes read
disjoint words, so the redraws of a node that a single update's tag
discards move no kept draw.  The level walk and
oracle.reference_delete_group's depth-first walk read the same words for
any group, as delete() and a group of one do.  A forest deletes and adds
each id at most once (ids are never reused), so no two of its calls read
one call word; Tree-level calls that delete or add one id twice in a
tree are outside this.

Law.  Taking the hash of distinct (key, index) pairs as independent
uniform words, the premise of counter-based generators: tree keys, roots'
keys, ranks and call words are distinct words of the seed and the tree
keys, a tag key a word of W that no redraw reads, and a child's key a
word of its parent's key that no split reads.  So a node's draws are
fresh i.i.d. uniforms, independent of the data and of every draw that
decided to grow or tag it.  Its attribute subset is then a uniform
p-subset (the p smallest of d i.i.d. keys) and its thresholds s i.i.d.
uniforms over its range, so a tree has the law of one grown depth first
from a stream, and a sample's k trees are a uniform k-subset of the T,
independent of every other sample's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate, groupby
from operator import itemgetter

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


# SplitMix64's increment and output mix, as uint64 scalars: with a uint64
# array on the other side, numpy keeps every step in uint64 under both its
# legacy and its NEP 50 promotion rules (a Python int or an int64 there
# would give float64 under some)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_S31, _S11 = np.uint64(31), np.uint64(11)


def key_words(keys, index):
    """Words index of keys as a uint64 array of at least one dimension:
    SplitMix64's output mix of key + (index + 1) * gamma, mod 2**64.  keys
    (64-bit keys, as Python ints or numpy integers) and index (word
    numbers) broadcast together.  This is the one function that turns a
    key into bits (see the module docstring, Randomness)."""
    # a 0-d index would make numpy scalars, whose wrapping product warns
    z = (np.array(index, np.uint64, ndmin=1) + np.uint64(1)) * _GAMMA + np.asarray(keys, np.uint64)
    for shift, factor in _MIX:
        z ^= z >> shift
        z *= factor
    z ^= z >> _S31
    return z


# word 3i + CHOOSE, DELETE or ADD of a tree's key serves sample id i
CHOOSE, DELETE, ADD = 1, 2, 3


def tree_keys(seed, n_trees):
    """Word t of the seed for each tree t, its key, as Python ints."""
    return key_words(seed, np.arange(n_trees)).tolist()


def uniforms(words):
    """uint64 words as float64 uniforms in [0, 1): each word's top 53 bits,
    (w >> 11) * 2**-53, as Generator.random turns a word into a float."""
    return (words >> _S11) * 2.0 ** -53


# the grid fields and their dtypes in a GridPool
GRID_FIELDS = {"attrs": np.int64, "amin": np.float64, "amax": np.float64,
               "thr": np.float64, "b": np.int32, "c": np.int32}


class GridPool:
    """The grids of a set of trees, one row per gridded node.

    attrs, amin and amax are (rows, p) arrays and thr, b and c (rows, p, s)
    ones: a node's drawn attributes, their ranges, their sorted thresholds
    and the counts of its samples (b) and positives (c) at or below each.
    A count never exceeds its node's size, so b and c are int32.  Rows
    end and up have never been handed out; rows below end that no node
    holds sit on the free list, and take() hands them out again before it
    grows the arrays.  Growing replaces the arrays, so a view of a row is
    good only until the next take().  rows is the first capacity.
    """

    def __init__(self, p, s, rows=0):
        self.p = p
        self.s = s
        for name, dtype in GRID_FIELDS.items():
            setattr(self, name, np.empty((rows, p) + (s,) * (name in ("thr", "b", "c")), dtype))
        self.end = 0
        self.free = []

    def in_use(self):
        """Rows that nodes hold."""
        return self.end - len(self.free)

    def take(self, m):
        """Hand out m rows, most recently freed first; returns an int64 array."""
        reuse = min(m, len(self.free))
        rows = self.free[len(self.free) - reuse:]
        del self.free[len(self.free) - reuse:]
        if reuse < m:
            fresh = self.end + m - reuse
            if fresh > len(self.b):
                self._resize(max(fresh, 2 * len(self.b)))
            rows.extend(range(self.end, fresh))
            self.end = fresh
        return np.array(rows, np.int64)

    def release(self, rows):
        """Put rows that no node holds any more on the free list."""
        self.free.extend(rows)

    def trim(self):
        """Drop the capacity beyond end."""
        self._resize(self.end)

    def extend(self, parts):
        """Append the grids of parts, a list of dicts of field arrays, as
        rows end, end + 1, ...: one concatenation per field, which also
        drops spare capacity.  Counts are cast to int32, so check them
        first."""
        for name, dtype in GRID_FIELDS.items():
            setattr(self, name, np.concatenate(
                [getattr(self, name)[:self.end]] + [part[name] for part in parts], dtype=dtype))
        self.end = len(self.b)

    def _resize(self, rows):
        for name in GRID_FIELDS:
            old = getattr(self, name)
            new = np.empty((rows,) + old.shape[1:], old.dtype)
            new[:self.end] = old[:self.end]
            setattr(self, name, new)


class Node:
    """Tree node.  row is the node's row in its tree's GridPool, or -1 for
    a node without a grid.  Leaves may keep their grid (all-degenerate
    draw); tagged nodes have no children and best_k == -1.

    A split node's (best_k, best_i) locates its split cell in the grid.
    axis and best_w are that cell's attribute and threshold, stored as a
    Python int and float for routing: a row goes left when
    row[axis] <= best_w.  A node that does not split has axis -1.  key is
    the 64-bit key of the node's own draws, held from the moment it is
    planted, grown as a child or tagged until growth reads it: once grown,
    a node holds None, so of a grown tree only tagged nodes hold one."""

    __slots__ = ("depth", "ids", "n_pos", "row", "best_k", "best_i", "best_w",
                 "axis", "left", "right", "tagged", "key")

    def __init__(self, depth, ids, n_pos):
        self.depth = depth
        self.ids = ids
        self.n_pos = n_pos
        self.row = -1
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


# The most grid cells best_cells scores in one criterion call: a larger
# stack goes in blocks of whole grids, so that the criterion's temporaries
# stay a few tens of kB.  Scored whole, a stack of 350 (5, 15) grids took
# 1.5x and one of 1 000 or more 2x the blocked time (timeit, 2-core VM).
SCORE_CELLS = 1 << 13


def best_cells(b, c, n, n_pos, flat, criterion):
    """Score one (p, s) count grid, or an (m, p, s) stack of them, and
    return each grid's first minimum cell as best_k, best_i and whether it
    is usable: Python ints and a bool for one grid, (m,) arrays for a stack.

    n and n_pos are the node totals, ints or (m,) arrays.  flat, (p,) or
    (m, p), marks the slots whose range is a single value: they score
    +inf, so an all-flat grid has no usable cell.  Ties go to the first
    cell in row-major order (slots in draw order, thresholds ascending).
    An empty node is scored as if it held one sample; no caller reads its
    cell.  A stack is scored in blocks of whole grids of at most SCORE_CELLS
    cells, elementwise, so blocks change no bit.
    """
    s = b.shape[-1]
    if b.ndim == 2:
        score = crit.score_matrix(b, c, max(n, 1), n_pos, criterion)
        score[flat] = np.inf
        cells = score.ravel()
        best = int(cells.argmin())
        return best // s, best % s, math.isfinite(cells[best])
    m, per = len(b), max(SCORE_CELLS // (b.shape[1] * s), 1)
    n, n_pos = np.maximum(n, 1)[:, None, None], n_pos[:, None, None]
    if m <= per:
        score = crit.score_matrix(b, c, n, n_pos, criterion)
    else:
        score = np.concatenate([crit.score_matrix(b[a:a + per], c[a:a + per], n[a:a + per],
                                                  n_pos[a:a + per], criterion)
                                for a in range(0, m, per)])
    score[flat] = np.inf
    cells = score.reshape(m, b.shape[1] * s)
    best = cells.argmin(axis=1)
    best_k, best_i = np.divmod(best, s)
    return best_k, best_i, np.isfinite(cells.min(axis=1))


class Tree:
    """One extremely randomized tree over a Dataset.

    Use build_tree() or Forest.train() to construct; add/delete/query
    implement the lazy protocol described in the module docstring.  key
    is the tree's 64-bit key, an int (see the module docstring,
    Randomness).
    """

    def __init__(self, params, ds, key, pool=None):
        params.validate(ds.n_attrs)
        self.params = params
        self.ds = ds
        self.key = key
        self.d = ds.n_attrs
        self.p = params.resolve_attrs(self.d)
        self.s = params.n_thresholds
        # the trees of a forest share one pool, as they share the Dataset
        self.pool = GridPool(self.p, self.s) if pool is None else pool
        self.root = None
        self.n_tagged = 0
        self.telemetry = Telemetry()

    # -- construction ---------------------------------------------------

    def plant(self, ids):
        """Make the root over the given sample ids, not yet grown, keyed by
        word 0 of the tree's key; returns it.  grow() grows it."""
        ids = np.asarray(ids, dtype=np.int64)
        self.root = Node(0, ids, int((self.ds.y[ids] == 1).sum()))
        self.root.key, = key_words(self.key, 0).tolist()
        return self.root

    def build(self, ids):
        grow([(self, [self.plant(ids)])])
        return self

    def _stop(self, depth, n, n_pos):
        """The stop rule, for one node's numbers or for arrays of them."""
        return ((depth >= self.params.max_depth) | (n < self.params.min_split_size)
                | (n_pos == 0) | (n_pos == n))

    # -- tag bookkeeping --------------------------------------------------

    def _tag(self, node, cause, key):
        """Tag node, discarding its subtree, and give it the draw key key;
        counts the tag under the Telemetry field cause.  Returns node."""
        # the discarded subtree may itself hold tagged nodes: untag them and
        # settle the count; its grids' rows go on the free list
        stack = [node.left, node.right] if node.left is not None else []
        free = []
        while stack:
            child = stack.pop()
            if child.tagged:
                child.tagged = False
                self.n_tagged -= 1
            if child.row != -1:
                free.append(child.row)
                child.row = -1
            if child.left is not None:
                stack.extend((child.left, child.right))
        self.pool.release(free)
        node.tagged = True
        node.left = None
        node.right = None
        node.best_k = -1
        node.best_i = -1
        node.best_w = 0.0
        node.axis = -1
        node.key = key
        self.n_tagged += 1
        setattr(self.telemetry, cause, getattr(self.telemetry, cause) + 1)
        return node

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
        """Remove a set of samples in one level-by-level walk; returns the
        nodes that became tagged.

        Equivalent in distribution to deleting them one by one; grouping
        lets the per-node grid work amortize across the batch.  It leaves
        the tree exactly as oracle.reference_delete_group does, and a group
        of one exactly as delete() does.  A one-tree call into
        delete_groups.
        """
        return delete_groups([(self, group)])[0]

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
        path, one = [], np.array([sample_id], np.int64)
        while True:
            node.ids = np.concatenate((node.ids, one))
            node.n_pos += label
            path.append(node)
            if node.tagged or node.left is None:
                return path
            node = node.left if x[node.axis] <= node.best_w else node.right

    def _settle_delete(self, path, moved, j):
        """Walk a routed deletion's flags top down, from row j of the stack
        on, drawing nothing; returns the node to tag and its Telemetry
        cause (None, None if none) and the stack row past the last node
        settled.  delete_groups applies the same rules a level at a time."""
        for node in path:
            self.telemetry.nodes_updated += 1
            stopped = node.left is not None and self._stop(node.depth, node.n, node.n_pos)
            off = False
            if node.row != -1:
                off = moved[j]
                j += 1
            if stopped:
                return node, "tags_stopped", j
            if node.tagged or node.left is None:
                break
            if off:
                return node, "tags_moved", j
        return None, None, j

    def _settle_add(self, path, moved, flagged, j):
        """Walk a routed addition's flags top down, from row j of the stack
        on, drawing nothing; returns as _settle_delete does."""
        for node in path:
            self.telemetry.nodes_updated += 1
            if node.row == -1:
                # slotless leaf: tag once every stop criterion has lifted
                if node.tagged or self._stop(node.depth, node.n, node.n_pos):
                    break
                return node, "tags_stopped", j
            off, widened = moved[j], flagged[j]
            j += 1
            if node.tagged:
                break
            if node.left is None:
                # leaf kept its grid because every slot was degenerate; a
                # widening value makes it splittable again
                if widened:
                    return node, "tags_widened", j
                break
            if off:
                return node, "tags_moved", j
        return None, None, j

    # -- queries ----------------------------------------------------------

    def query(self, x):
        """Route a feature vector (a sequence or a 1-d array of d finite
        values) to its leaf; returns (n, n_pos) there.

        Grows (one level at a time) any tagged node on the path.
        """
        leaf, = route_row([self], feature_row(x, self.d))
        return len(leaf.ids), leaf.n_pos

    def query_many(self, X):
        """Route a batch of rows to their leaves; returns (n, n_pos) arrays.

        Rows go down the tree together, stopping at leaves and tagged
        nodes; every tagged node some row reaches is grown one level, all
        in one kernel call, and the rows there go on.  A node grown by a
        query draws from its own key, so the tree grows exactly as
        row-by-row query() calls would grow it, in any row order.
        """
        n, n_pos = route_rows([self], feature_rows(X, self.d))
        return n[0], n_pos[0]

    # -- maintenance --------------------------------------------------------

    def untag_all(self):
        """Untag every tagged node; returns them in preorder, now fresh, for
        grow() to regrow."""
        tagged = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.tagged:
                tagged.append(node)
            elif node.left is not None:
                stack.append(node.right)
                stack.append(node.left)
        return _untag([(self, node) for node in tagged])

    def flush(self):
        """Rebuild every tagged subtree, all of them level by level together;
        afterwards no tags remain."""
        grow([(self, self.untag_all())])
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

    Routes every tree, takes each tree's call word (see the module
    docstring, Randomness), patches the visited grids of all trees in one
    stacked step, puts every path node a range change may reach through
    one range change, scores every path grid in one kernel call, and walks
    each tree's flags in path order to its tag (see Updates).  The trees
    must share one Dataset, one TreeParams and one GridPool; an added
    sample must already be in the Dataset, and a deleted one must still be
    live there.
    """
    ds = trees[0].ds
    x = ds.X[sample_id]
    label = int(ds.y[sample_id])
    row = x.tolist()  # routing compares Python floats faster
    paths = [tree._route_add(sample_id, label, row) if add
             else tree._route_delete(sample_id, label, row) for tree in trees]
    words = key_words([tree.key for tree in trees], 3 * sample_id + (ADD if add else DELETE))
    # the path grids of all trees in one stack, tree by tree in path order;
    # tree t's rows are starts[t] to starts[t + 1] - 1
    nodes, owner, starts = [], [], []
    for t, path in enumerate(paths):
        starts.append(len(nodes))
        nodes.extend(node for node in path if node.row != -1)
        owner += [t] * (len(nodes) - len(owner))
    starts.append(len(nodes))
    moved, flagged, redrew = [], [], {}
    if nodes:
        moved, flagged, redrew = _patch_paths(trees, owner, nodes, x, label, add, words)
    tagged = []
    for t, (tree, path) in enumerate(zip(trees, paths)):
        if add:
            node, cause, j = tree._settle_add(path, moved, flagged, starts[t])
        else:
            node, cause, j = tree._settle_delete(path, moved, starts[t])
        # the tag discards the nodes below it, and the counters their redraws
        for i in range(j, starts[t + 1]):
            if redrew.get(i):
                tree.telemetry.attrs_resampled -= redrew[i]
                tree.telemetry.range_resample_samples -= nodes[i].n
        if node is not None:
            key, = key_words(words[t], [_block(tree, node.depth, 0) + tree.p * tree.s]).tolist()
            node = tree._tag(node, cause, key)
        tagged.append(node)
    return tagged


def _patch_paths(trees, owner, nodes, x, label, add, words):
    """The stacked steps of update_paths over the path grids of all its
    trees (nodes, the grid of tree owner[j] at row j, whose call word is
    words[owner[j]]): patch, range change, score.  Returns, as lists, per
    row whether the node's split moved (_moved_mask) and whether a slot was
    hit (deleting: the value sat on a range boundary) or widened (adding:
    it lay outside), and a dict of the slots the range change redrew per
    row that went through it."""
    kernel = trees[0]
    pool = kernel.pool
    rows = np.array([node.row for node in nodes])
    amin = pool.amin[rows]
    amax = pool.amax[rows]
    xs = x[pool.attrs[rows]]
    covered = pool.thr[rows] >= xs[:, :, None]
    patch = np.add if add else np.subtract
    b = pool.b[rows]
    c = pool.c[rows]
    patch(b, covered, out=b)
    pool.b[rows] = b
    if label:
        patch(c, covered, out=c)
        pool.c[rows] = c
    flags = (xs < amin) | (xs > amax) if add else (xs == amin) | (xs == amax)
    flagged = flags.any(axis=1).tolist()
    # the nodes that go through the range change, and whether each may
    # redraw: adding, the widened untagged split nodes, whose exact range
    # the rescan widens by the added value; deleting, the hit or emptied
    # nodes, an untagged one whose stop rule does not hold redrawing
    if add:
        entries = [j for j, node in enumerate(nodes)
                   if flagged[j] and not node.tagged and node.left is not None]
        redraw = [True] * len(entries)
    else:
        entries = [j for j, node in enumerate(nodes) if flagged[j] or not node.n]
        redraw = [not (node.tagged or node.left is not None
                       and kernel._stop(node.depth, node.n, node.n_pos))
                  for node in (nodes[j] for j in entries)]
    redrew = {}
    if entries:
        # a path node is the only node of its tree and depth the call visits
        slots = _range_change([(trees[owner[j]], nodes[j]) for j in entries], flags[entries],
                              redraw, words[[owner[j] for j in entries]],
                              _block(kernel, np.array([nodes[j].depth for j in entries]), 0))
        redrew = dict(zip(entries, slots))
        if any(slots):
            # the redrawn grids are scored as they now are
            b, c, amin, amax = pool.b[rows], pool.c[rows], pool.amin[rows], pool.amax[rows]
    n = np.array([node.n for node in nodes])
    n_pos = np.array([node.n_pos for node in nodes])
    cells = best_cells(b, c, n, n_pos, amin == amax, kernel.params.criterion)
    return _moved_mask(pool, rows, nodes, *(cell.tolist() for cell in cells)), flagged, redrew


def _block(tree, depth, rank):
    """The first word of its tree's call word that an update reads for
    the node it visits at depth and rank (ints or int arrays): s words
    per slot, then the node's tag key (see the module docstring,
    Randomness)."""
    return ((depth << 32) + rank) * (tree.p * tree.s + 1)


# -- group deletion -----------------------------------------------------------


def delete_groups(pairs):
    """Delete a group of samples from each of several trees; returns, per
    pair, the list of nodes the deletion tagged.

    pairs lists (tree, group): distinct trees that share one Dataset, one
    TreeParams and one GridPool, each with the ids to delete from it, all
    still live in the Dataset.  The nodes of all trees are walked together
    a level at a time (see the module docstring, Deleting a group).  Every
    node of a level is checked to hold its whole group before any node of
    it changes, so a group holding an id that its tree's root does not
    hold raises ValueError and leaves every tree as it was.
    """
    trees = [tree for tree, _ in pairs]
    groups = [np.asarray(group, dtype=np.int64) for _, group in pairs]
    tagged = [[] for _ in pairs]
    frontier = [(t, trees[t].root) for t, group in enumerate(groups) if len(group)]
    if not frontier:
        return tagged
    cap = _largest_root([trees[t] for t, _ in frontier])
    grp = np.concatenate([groups[t] for t, _ in frontier])
    lens = np.array([len(groups[t]) for t, _ in frontier])
    member = np.zeros(trees[frontier[0][0]].ds.next_id, bool)
    # each tree's call word: the delete word of its group's smallest id
    words = key_words([tree.key for tree in trees],
                      3 * np.array([group.min() if len(group) else 0 for group in groups]) + DELETE)
    while frontier:
        keeps = _kept_ids(frontier, grp, lens, member)
        frontier, grp, lens = _delete_level(trees, frontier, grp, lens, keeps, words, cap, tagged)
    return tagged


def _kept_ids(frontier, grp, lens, member):
    """Each node's ids without its group, for the nodes of a delete_groups
    level: frontier lists (tree index, node), tree-major, grp holds their
    groups one after another, lens[j] ids for node j, and member is an
    all-False mask over the sample ids, which it leaves so.  Raises
    ValueError, having changed nothing, if a node lacks an id of its
    group."""
    ends = lens.cumsum()
    starts = ends - lens
    keeps, j = [], 0
    for _, run in groupby(frontier, key=itemgetter(0)):
        nodes = [node for _, node in run]
        share = grp[starts[j]:ends[j + len(nodes) - 1]]
        member[share] = True
        keeps += [node.ids[~member[node.ids]] for node in nodes]
        member[share] = False
        j += len(nodes)
    for (_, node), keep, size in zip(frontier, keeps, lens.tolist()):
        missing = size - (node.n - len(keep))
        if missing:
            raise ValueError("%d of %d ids not present at depth %d; tree and "
                             "routing disagree" % (missing, size, node.depth))
    return keeps


def _delete_level(trees, frontier, grp, lens, keeps, words, cap, tagged):
    """One level of delete_groups, over the frontier, groups and kept ids
    that _kept_ids takes; words[t] is tree t's call word.
    Appends the nodes tagged here to tagged[tree index]; returns the next
    level's (frontier, grp, lens)."""
    kernel = trees[frontier[0][0]]
    ds = kernel.ds
    gone_pos = np.add.reduceat(ds.y[grp] == 1, lens.cumsum() - lens)
    for (t, node), keep, gone in zip(frontier, keeps, gone_pos.tolist()):
        node.ids = keep
        node.n_pos -= gone
        trees[t].telemetry.nodes_updated += 1
    # each node's call word, and its block by its rank among its tree's
    # nodes of the level, which the tree-major frontier lists left to right
    owner = np.array([t for t, _ in frontier])
    words = words[owner]
    blocks = _block(kernel, frontier[0][1].depth,
                    np.arange(len(owner)) - np.searchsorted(owner, owner))
    stopped = [node.left is not None and kernel._stop(node.depth, node.n, node.n_pos)
               for _, node in frontier]
    gridded = [j for j, (_, node) in enumerate(frontier) if node.row != -1]
    moved = set()
    if gridded:
        _patch_level(trees, frontier, grp, lens, gridded, stopped, cap,
                     words[gridded], blocks[gridded])
        scored = [j for j in gridded if not stopped[j] and frontier[j][1].left is not None]
        moved = {j for j, off in zip(scored, _moved_nodes(kernel, [frontier[j][1] for j in scored]))
                 if off}
    tags = [j for j in range(len(frontier)) if stopped[j] or j in moved]
    for j, key in zip(tags, key_words(words[tags], blocks[tags] + kernel.p * kernel.s).tolist()):
        t, node = frontier[j]
        tagged[t].append(trees[t]._tag(node, "tags_stopped" if stopped[j] else "tags_moved", key))
    # route each group on to the children of the nodes still split
    routed = [j for j, (_, node) in enumerate(frontier) if node.left is not None]
    if not routed:
        return [], None, None
    grp, lens = _groups_of(routed, grp, lens)
    nodes = [frontier[j] for j in routed]
    axis = np.array([node.axis for _, node in nodes])
    best_w = np.array([node.best_w for _, node in nodes])
    right = ds.X[grp, np.repeat(axis, lens)] > np.repeat(best_w, lens)
    side = 2 * np.repeat(np.arange(len(nodes)), lens) + right
    sizes = np.bincount(side, minlength=2 * len(nodes)).tolist()
    children = []
    for (t, node), n_left, n_right in zip(nodes, sizes[::2], sizes[1::2]):
        if n_left:
            children.append((t, node.left))
        if n_right:
            children.append((t, node.right))
    return children, grp[np.argsort(side, kind="stable")], np.array([n for n in sizes if n])


def _groups_of(picked, grp, lens):
    """The groups of the picked nodes (a sorted list of node indices) of a
    level whose groups grp holds, lens[j] ids for node j: their ids and
    lens."""
    if len(picked) == len(lens):
        return grp, lens
    keep = np.zeros(len(lens), bool)
    keep[picked] = True
    return grp[np.repeat(keep, lens)], lens[picked]


def _patch_level(trees, frontier, grp, lens, gridded, stopped, cap, words, blocks):
    """Patch the grids of a delete_groups level: take each gridded node's
    group out of its counts, then put every gridded node through the
    range-change step, the slots where a deleted value sat on a range
    boundary marked as hit; an untagged, unstopped node may redraw, from
    its call word and block (words and blocks, per gridded node).
    Patches go in chunks of whole nodes of at most CHUNK_ROWS rows, a grid
    counting as s rows."""
    kernel = trees[frontier[0][0]]
    grp, lens = _groups_of(gridded, grp, lens)
    rows = np.array([frontier[j][1].row for j in gridded])
    hit = np.empty((len(gridded), kernel.p), bool)
    ends = lens.cumsum()
    for a, z in _runs(lens + kernel.s, CHUNK_ROWS):
        span = slice(ends[a] - lens[a], ends[z - 1])
        hit[a:z] = _patch_chunk(kernel, rows[a:z], grp[span], lens[a:z], cap)
    _range_change([(trees[frontier[j][0]], frontier[j][1]) for j in gridded], hit,
                  [not (stopped[j] or frontier[j][1].tagged) for j in gridded], words, blocks)


def _patch_chunk(kernel, rows, grp, lens, cap):
    """Take a chunk's groups out of its nodes' counts (pool rows rows,
    lens[j] ids of grp for node j); returns per node and slot whether a
    deleted value sat on the range boundary."""
    pool = kernel.pool
    vals = kernel.ds.X[grp[:, None], np.repeat(pool.attrs[rows], lens, axis=0)]
    db, dc = _prefix_grids(_below(pool.thr[rows], lens, vals, cap), lens,
                           kernel.ds.y[grp] == 1, kernel.s)
    pool.b[rows] -= db
    pool.c[rows] -= dc
    edge = ((vals == np.repeat(pool.amin[rows], lens, axis=0))
            | (vals == np.repeat(pool.amax[rows], lens, axis=0)))
    return np.logical_or.reduceat(edge, np.concatenate(([0], lens[:-1].cumsum())), axis=0)


def _range_change(entries, hit, redraw, words, blocks):
    """The range-change step of every update, over (tree, node) entries:
    gridded nodes of trees that share one Dataset and one GridPool.  hit,
    an (m, p) mask, marks the slots whose range the update may have
    changed, and redraw[j] says whether node j may redraw.  Returns per
    node the number of slots it redrew, as a list of ints.

    An emptied node has no value left to rescan to: its ranges and
    thresholds are zeroed, as its dead rows are.  Every other hit slot is
    rescanned, a min and max over its node's ids, and its range stored.
    If the range changed and its node may redraw, slot k then reads the s
    uniforms of words blocks[j] + k*s onward of the call word words[j]
    (see the module docstring, Randomness), scaled onto the new range and
    sorted as growth's are, and is recounted; the tree's attrs_resampled
    and range_resample_samples count it.  Slots go in runs of whole slots
    of at most CHUNK_ROWS ids (a larger slot is a run of its own), and a
    recount compares each id of its run with s thresholds.
    """
    kernel = entries[0][0]
    ds, pool, s = kernel.ds, kernel.pool, kernel.s
    nodes = [node for _, node in entries]
    emptied = [j for j, node in enumerate(nodes) if not node.n]
    if emptied:
        rows = [nodes[j].row for j in emptied]
        pool.amin[rows] = 0.0
        pool.amax[rows] = 0.0
        pool.thr[rows] = 0.0
        hit = hit.copy()
        hit[emptied] = False
    at, slots = np.nonzero(hit)
    if not len(at):
        return [0] * len(nodes)
    owner = at.tolist()
    sizes = [nodes[j].n for j in owner]
    redrew = [0] * len(nodes)
    runs = [(0, len(owner))] if sum(sizes) <= CHUNK_ROWS else _runs(np.array(sizes), CHUNK_ROWS)
    for a, z in runs:
        run, n = owner[a:z], np.array(sizes[a:z])
        r, k = np.array([nodes[j].row for j in run]), slots[a:z]
        ids = np.concatenate([nodes[j].ids for j in run])
        vals = ds.X[ids, np.repeat(pool.attrs[r, k], n)]
        starts = list(accumulate(sizes[a:z - 1], initial=0))
        lo = np.minimum.reduceat(vals, starts)
        hi = np.maximum.reduceat(vals, starts)
        old_lo, old_hi = pool.amin[r, k], pool.amax[r, k]
        changed = (lo != old_lo) | (hi != old_hi)
        pool.amin[r, k] = np.where(changed, lo, old_lo)
        pool.amax[r, k] = np.where(changed, hi, old_hi)
        again = [c and redraw[j] for c, j in zip(changed.tolist(), run)]
        if not any(again):
            continue
        picked = at[a:z]
        if not all(again):
            q = np.flatnonzero(again)
            lo, hi, r, k, n, picked = lo[q], hi[q], r[q], k[q], n[q], picked[q]
            keep = np.repeat(again, sizes[a:z])
            ids, vals = ids[keep], vals[keep]
            starts = list(accumulate(n[:-1].tolist(), initial=0))
        u = uniforms(key_words(words[picked, None], (blocks[picked] + k * s)[:, None]
                               + np.arange(s)))
        thr = np.sort(lo[:, None] + (hi - lo)[:, None] * u, axis=1)
        pool.thr[r, k] = thr
        # b and c count, per threshold, the slot's ids at or below it
        at_or_above = np.repeat(thr.T, n, axis=1) >= vals
        pool.b[r, k] = np.add.reduceat(at_or_above, starts, axis=1, dtype=np.int32).T
        at_or_above &= ds.y[ids] == 1
        pool.c[r, k] = np.add.reduceat(at_or_above, starts, axis=1, dtype=np.int32).T
        for j in picked.tolist():
            redrew[j] += 1
    for (tree, node), count in zip(entries, redrew):
        if count:
            tree.telemetry.attrs_resampled += count
            tree.telemetry.range_resample_samples += node.n
    return redrew


def _moved_mask(pool, rows, nodes, k, i, usable):
    """Per split node of nodes, at pool rows rows: is the first argmin cell
    (k, i, usable, as lists) that best_cells found on its current grid not
    its recorded split?  That is, unusable, another cell, or the same cell
    at another threshold value.  Returns a list of bools.  The cells are
    compared as Python scalars, which costs less than building arrays of
    the nodes' splits."""
    return [not ok or (kk, ii, w) != (node.best_k, node.best_i, node.best_w)
            for node, kk, ii, ok, w in zip(nodes, k, i, usable, pool.thr[rows, k, i].tolist())]


def _moved_nodes(tree, nodes):
    """Per split node of nodes (of trees sharing tree's pool and params),
    whether its best cell moved (_moved_mask), each grid scored afresh in
    one best_cells call per chunk of whole grids, a grid counting as s rows
    of CHUNK_ROWS."""
    pool, per, moved = tree.pool, max(CHUNK_ROWS // tree.s, 1), []
    for a in range(0, len(nodes), per):
        chunk = nodes[a:a + per]
        rows = [node.row for node in chunk]
        if len(chunk) == 1:
            # one grid is scored on views, which costs less than a gather
            (node,), (r,) = chunk, rows
            cells = [[cell] for cell in best_cells(pool.b[r], pool.c[r], node.n, node.n_pos,
                                                   pool.amin[r] == pool.amax[r],
                                                   tree.params.criterion)]
        else:
            cells = [cell.tolist() for cell in best_cells(
                pool.b[rows], pool.c[rows], np.array([node.n for node in chunk]),
                np.array([node.n_pos for node in chunk]), pool.amin[rows] == pool.amax[rows],
                tree.params.criterion)]
        moved += _moved_mask(pool, rows, chunk, *cells)
    return moved


# -- query routing ----------------------------------------------------------


def feature_row(x, d):
    """x, one row of d finite features, as a list of Python floats, which
    routing compares faster than numpy scalars; raises ValueError
    otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError("expected %d features, got shape %s" % (d, x.shape))
    row = x.tolist()
    if not all(map(math.isfinite, row)):
        raise ValueError("features must be finite, row 0 is not")
    return row


def feature_rows(X, d):
    """X, rows of d finite features, as a float64 (m, d) array; raises
    ValueError otherwise, naming the first row that is not finite."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError("expected (m, %d) matrix, got shape %s" % (d, X.shape))
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError("features must be finite, row %d is not" % np.flatnonzero(~finite)[0])
    return X


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


def route_rows(trees, X):
    """Route the rows of a float matrix X down each tree to their leaves;
    returns (n, n_pos) arrays of shape (len(trees), len(X)).

    The (tree, row) pairs of all trees go down together, a depth per step.
    They are held as slots t*m + row, in one array in which each node's
    pairs form one run.  A step compares every run's rows at its node's
    split in one gather, and the runs of the left children, then of the
    right children, make the next step's array.  A leaf writes its
    (n, n_pos) at its slots.  A tagged node holds its run back until no
    pair sits at a split node; then every tagged node reached, in all
    trees, grows one level in one materialize() step, and their runs go
    on from there.
    """
    m = len(X)
    out_n = np.empty((len(trees), m), np.int64)
    out_pos = np.empty((len(trees), m), np.int64)
    if not m:
        return out_n, out_pos
    flat_n, flat_pos = out_n.reshape(-1), out_pos.reshape(-1)
    frontier = [(t, tree.root) for t, tree in enumerate(trees)]
    slots, lens = np.arange(len(trees) * m), [m] * len(trees)
    waiting, held, held_lens = [], [], []
    while frontier or waiting:
        if not frontier:
            materialize([(trees[t], node) for t, node in waiting])
            frontier, slots, lens = waiting, np.concatenate(held), held_lens
            waiting, held, held_lens = [], [], []
        # 0 a split node, 1 a leaf, 2 a tagged node
        kind = [0 if node.left is not None else 2 if node.tagged else 1 for _, node in frontier]
        if any(kind):
            at = np.repeat(kind, lens)
            leaves = [j for j, k in enumerate(kind) if k == 1]
            if leaves:
                leaf_lens = [lens[j] for j in leaves]
                mine = slots[at == 1]
                flat_n[mine] = np.repeat([len(frontier[j][1].ids) for j in leaves], leaf_lens)
                flat_pos[mine] = np.repeat([frontier[j][1].n_pos for j in leaves], leaf_lens)
            tagged = [j for j, k in enumerate(kind) if k == 2]
            if tagged:
                waiting += [frontier[j] for j in tagged]
                held.append(slots[at == 2])
                held_lens += [lens[j] for j in tagged]
            split = [j for j, k in enumerate(kind) if not k]
            frontier, slots = [frontier[j] for j in split], slots[at == 0]
            lens = [lens[j] for j in split]
            if not frontier:
                continue
        nodes = [node for _, node in frontier]
        # one flat gather of each pair's row of X at its node's split axis
        left = (X.take(slots % m * X.shape[1] + np.repeat([node.axis for node in nodes], lens))
                <= np.repeat([node.best_w for node in nodes], lens))
        n_left = np.add.reduceat(left, list(accumulate(lens[:-1], initial=0)),
                                 dtype=np.int64).tolist()
        n_right = [size - n for size, n in zip(lens, n_left)]
        slots = np.concatenate((slots[left], slots[~left]))
        lens = [n for n in n_left + n_right if n]
        frontier = ([(t, node.left) for (t, node), n in zip(frontier, n_left) if n]
                    + [(t, node.right) for (t, node), n in zip(frontier, n_right) if n])
    return out_n, out_pos


def materialize(reached):
    """Grow one level at each tagged node of reached, a list of distinct
    (tree, node) pairs, untag the nodes and tag their children: one
    split-kernel call, whose counting runs hold at most as many samples as
    the largest root among the trees.

    Every node draws from its own key and its children's keys come from
    that key, so the grown trees do not depend on which nodes share a
    call, and a node grows as a flush would grow it.  The trees must share
    one Dataset, one TreeParams and one GridPool.  Counters and tag counts
    go to each node's tree.
    """
    cap = _largest_root(list(dict.fromkeys(tree for tree, _ in reached)))
    for tree, _ in reached:
        tree.telemetry.nodes_materialized += 1
    _untag(reached)
    _split_level(reached, cap)
    for tree, node in reached:
        if node.left is not None:
            node.left.tagged = node.right.tagged = True
            tree.n_tagged += 2


# -- growth -------------------------------------------------------------------


def _largest_root(trees):
    """The most samples a root among trees holds, which bounds a counting
    run; refuses trees that do not share one Dataset, one TreeParams and
    one GridPool."""
    first = trees[0]
    for tree in trees:
        if (tree.ds is not first.ds or tree.pool is not first.pool
                or tree.params is not first.params and tree.params != first.params):
            raise ValueError("trees grown together must share one Dataset "
                             "and one TreeParams, and one GridPool")
    return max(len(tree.root.ids) for tree in trees)


def _untag(pairs):
    """Untag the nodes of (tree, node) pairs of trees sharing one GridPool,
    each tree counting its own, and put their stale grids' rows on the
    free list in one release; returns the nodes, now fresh."""
    free = []
    for tree, node in pairs:
        tree.telemetry.subtree_samples_rebuilt += len(node.ids)
        tree.n_tagged -= 1
        node.tagged = False
        if node.row != -1:
            free.append(node.row)
            node.row = -1
    if free:
        pairs[0][0].pool.release(free)
    return [node for _, node in pairs]


def grow(frontiers):
    """Grow fresh nodes into full subtrees, the nodes of all trees
    together, one frontier step per split-kernel call.

    frontiers is a list of (tree, nodes), one entry per tree; the trees
    must share one Dataset, one TreeParams and one GridPool.  Each node
    draws from its own key (see the module docstring, Randomness), so
    every tree grows exactly as a one-tree call would grow it.
    """
    pairs = [(tree, node) for tree, nodes in frontiers for node in nodes]
    if not pairs:
        return
    cap = _largest_root([tree for tree, nodes in frontiers if nodes])
    while pairs:
        pairs = _split_level(pairs, cap)


# The most rows a kernel chunk holds, unless one node holds more: enough
# that a chunk's fixed cost of some 65 numpy calls is small against its
# rows (the preset's 30 trees of about 1 000 rows each fit in one chunk),
# few enough that its per-row arrays stay a few MB, where a forest-wide
# frontier of 100 trees of 10^5 rows would make them GB.
CHUNK_ROWS = 1 << 16


def _runs(lens, limit):
    """Split nodes of the given sizes into consecutive runs of whole nodes
    of at most limit rows each (a larger node is a run of its own); yields
    each run's first and end index."""
    ends = lens.cumsum()
    a = 0
    while a < len(lens):
        z = max(int(np.searchsorted(ends, ends[a] - lens[a] + limit, side="right")), a + 1)
        yield a, z
        a = z


def _count_below(thr, lens, vals):
    """One counting run: for each of a run of whole nodes' rows (vals, one
    value per slot) the number of its node's thresholds (thr) strictly
    below the value."""
    return (np.repeat(thr.transpose(2, 0, 1), lens, axis=1) < vals).sum(
        axis=0, dtype=np.min_scalar_type(thr.shape[2]))


def _below(thr, lens, vals, cap):
    """_count_below over a stack of whole nodes' rows, counted in runs of
    whole nodes of at most cap rows."""
    if len(vals) <= cap:
        return _count_below(thr, lens, vals)
    below = np.empty(vals.shape, np.min_scalar_type(thr.shape[2]))
    ends = lens.cumsum()
    for a, z in _runs(lens, cap):
        rows = slice(ends[a] - lens[a], ends[z - 1])
        below[rows] = _count_below(thr[a:z], lens[a:z], vals[rows])
    return below


def _prefix_grids(below, lens, positive, s):
    """The b and c grids of a stack of whole nodes (per threshold, the
    samples at or below it and the positives among them), from each row's
    _below count and label: histogram the counts into (node, slot, bin)
    and prefix-sum the bins.  Returns two (m, p, s) int64 arrays."""
    m, p = len(lens), below.shape[1]
    size = m * p * (s + 1)
    cell = np.repeat(np.arange(0, size, s + 1).reshape(m, p), lens, axis=0)
    cell += below
    b = np.bincount(cell.ravel(), minlength=size).reshape(m, p, s + 1)[:, :, :s]
    c = np.bincount(cell[positive].ravel(), minlength=size).reshape(m, p, s + 1)[:, :, :s]
    return b.cumsum(axis=2), c.cumsum(axis=2)


def _split_level(pairs, cap):
    """Split every non-stopping node of a frontier in one kernel call.

    pairs lists (tree, node); the trees must share one Dataset, one
    TreeParams and one GridPool.  Each node must be fresh: untagged,
    childless and without a grid.  Splittable nodes get their grid and
    best split (a node whose drawn attributes are all constant keeps its
    grid and stays a leaf), each from its own key, and their children
    get their keys (see the module docstring, Randomness); the others
    stay slotless leaves.  Every node's key is cleared.  Returns the new
    children as (tree, child), left before right, node by node: the next
    frontier.

    The call bounds its own memory.  It splits the nodes in chunks of
    whole nodes of at most CHUNK_ROWS rows (_split_chunk), and a chunk
    counts its (s, rows, p) threshold comparison in runs of whole nodes
    of at most cap rows.  cap is at least every node's size; the callers
    pass the largest root among the trees, so that no run holds more of
    the comparison than the build of one tree.  A frontier of at most cap
    rows is one chunk and one run.
    """
    kernel = pairs[0][0]
    splitting = [(tree, node) for tree, node in pairs
                 if not kernel._stop(node.depth, len(node.ids), node.n_pos)]
    keys = np.array([node.key for _, node in splitting], np.uint64)
    for _, node in pairs:
        node.key = None
    if not splitting:
        return []
    lens = np.array([len(node.ids) for _, node in splitting])
    limit = max(cap, CHUNK_ROWS)
    if lens.sum() <= limit:
        return _split_chunk(kernel, splitting, keys, lens, cap)
    children = []
    for a, z in _runs(lens, limit):
        children += _split_chunk(kernel, splitting[a:z], keys[a:z], lens[a:z], cap)
    return children


def _split_chunk(kernel, splitting, keys, lens, cap):
    """Split one chunk of splittable (tree, node) pairs in one vectorized
    pass, given their keys and sizes; returns their children, keyed, as
    _split_level does."""
    m, d, p, s = len(splitting), kernel.d, kernel.p, kernel.s
    X = kernel.ds.X
    # each node's block of d + p*s uniforms, then its children's keys
    raw = key_words(keys[:, None], np.arange(d + p * s + 2))
    u = uniforms(raw[:, :d + p * s])
    child_keys = raw[:, d + p * s:].tolist()
    n_pos = np.array([node.n_pos for _, node in splitting])
    ids = np.concatenate([node.ids for _, node in splitting])
    positive = kernel.ds.y[ids] == 1
    starts = np.concatenate(([0], lens[:-1].cumsum()))
    # each node's attribute subset: the p smallest of d uniform keys
    attrs = np.argpartition(u[:, :d], p - 1, axis=1)[:, :p]
    attrs.sort(axis=1)
    # one flat gather: each id's row of X at its node's attributes
    vals = X.take(ids[:, None] * d + np.repeat(attrs, lens, axis=0))
    amin = np.minimum.reduceat(vals, starts, axis=0)
    amax = np.maximum.reduceat(vals, starts, axis=0)
    # s uniform thresholds per slot, scaled onto its range and sorted; a
    # flat slot's span is 0, so it holds its one value
    thr = amin[:, :, None] + (amax - amin)[:, :, None] * u[:, d:].reshape(m, p, s)
    thr.sort(axis=2)
    b, c = _prefix_grids(_below(thr, lens, vals, cap), lens, positive, s)
    best_k, best_i, usable = best_cells(b, c, lens, n_pos, amin == amax,
                                        kernel.params.criterion)
    usable = usable.tolist()
    rows = np.arange(m)
    best_w = thr[rows, best_k, best_i]
    axis = attrs[rows, best_k]
    # each node's ids split by its split; masking keeps each child's ids in
    # order, and node j's left ids are run j of ids[left], its right ids
    # run j of ids[~left]
    left = X.take(ids * d + np.repeat(axis, lens)) <= np.repeat(best_w, lens)
    n_left = np.add.reduceat(left, starts, dtype=np.int64)
    pos_left = np.add.reduceat(left & positive, starts, dtype=np.int64).tolist()
    ids_left, ids_right = ids[left], ids[~left]
    ends_left = [0] + n_left.cumsum().tolist()
    ends_right = [0] + (lens - n_left).cumsum().tolist()
    best_k, best_i, best_w, axis, n_pos = (best_k.tolist(), best_i.tolist(), best_w.tolist(),
                                           axis.tolist(), n_pos.tolist())
    pool = kernel.pool
    grid_rows = pool.take(m)
    pool.attrs[grid_rows] = attrs
    pool.amin[grid_rows] = amin
    pool.amax[grid_rows] = amax
    pool.thr[grid_rows] = thr
    pool.b[grid_rows] = b
    pool.c[grid_rows] = c
    children = []
    for j, ((tree, node), row) in enumerate(zip(splitting, grid_rows.tolist())):
        node.row = row
        if not usable[j]:
            continue
        node.best_k = best_k[j]
        node.best_i = best_i[j]
        node.best_w = best_w[j]
        node.axis = axis[j]
        depth = node.depth + 1
        node.left = Node(depth, ids_left[ends_left[j]:ends_left[j + 1]].copy(), pos_left[j])
        node.right = Node(depth, ids_right[ends_right[j]:ends_right[j + 1]].copy(),
                          n_pos[j] - pos_left[j])
        node.left.key, node.right.key = child_keys[j]
        children.append((tree, node.left))
        children.append((tree, node.right))
    return children


def build_tree(ds, ids, params, key=0):
    """Grow a tree with key key (see Tree) over the given sample ids."""
    return Tree(params, ds, key).build(ids)


# -- audit ----------------------------------------------------------------


def _audit_node(tree, node, path, report, leaf_ids, rows):
    ds = tree.ds
    report.nodes_checked += 1
    ids = node.ids
    if len(np.unique(ids)) != len(ids):
        report.flag(path, "duplicate ids in node")
    true_pos = sum(int(ds.y[int(i)]) for i in ids)
    if node.n_pos != true_pos:
        report.flag(path, "n_pos mismatch", "stored=%d actual=%d" % (node.n_pos, true_pos))

    pool, row = tree.pool, node.row
    if row != -1:
        rows.append((row, path))
    gridded = type(row) is int and 0 <= row < pool.end
    if gridded:
        attrs, amin, amax, thr, b, c = (pool.attrs[row], pool.amin[row], pool.amax[row],
                                        pool.thr[row], pool.b[row], pool.c[row])
        vals = ds.X[ids[:, None], attrs] if len(ids) else np.empty((0, pool.p))
        positive = ds.y[ids] == 1
        # recount from raw values by direct comparison, not binary search
        below = vals[:, :, None] <= thr
        b_true = below.sum(axis=0)
        c_true = below[positive].sum(axis=0)
        if not node.tagged and len(ids):
            # the kernel's scores of the recount against the scalar criterion;
            # totals come from the ids, so an inconsistent node cannot crash it
            rule = crit.CRITERIA[tree.params.criterion]
            kernel = crit.score_matrix(b_true, c_true, len(ids), true_pos,
                                       tree.params.criterion)
        for k in range(pool.p):
            tag = "%s slot %d (attr %d)" % (path, k, attrs[k])
            if not (np.diff(thr[k]) >= 0).all():
                report.flag(tag, "thresholds not sorted")
            if not node.tagged and len(ids):
                if amin[k] != vals[:, k].min() or amax[k] != vals[:, k].max():
                    report.flag(tag, "stale range",
                                "stored [%g, %g] actual [%g, %g]"
                                % (amin[k], amax[k], vals[:, k].min(), vals[:, k].max()))
                if thr[k].min() < amin[k] or thr[k].max() > amax[k]:
                    report.flag(tag, "thresholds outside range")
                for i, (bi, ci) in enumerate(zip(b_true[k].tolist(), c_true[k].tolist())):
                    want = rule(crit.SplitCounts(bi, ci, len(ids) - bi, true_pos - ci))
                    if abs(kernel[k, i] - want) > 1e-9:
                        report.flag(tag, "kernel score off the criterion",
                                    "i=%d kernel=%.12g scalar=%.12g" % (i, kernel[k, i], want))
            if not np.array_equal(b[k], b_true[k]):
                report.flag(tag, "b counts stale", "stored=%s actual=%s" % (b[k], b_true[k]))
            if not np.array_equal(c[k], c_true[k]):
                report.flag(tag, "c counts stale", "stored=%s actual=%s" % (c[k], c_true[k]))

    if node.key is not None and not node.tagged:
        report.flag(path, "untagged node holds a draw key")
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

    if not gridded:
        report.flag(path, "split node without a grid")
        return
    k, i, _ = best_cells(b_true, c_true, len(ids), true_pos, amin == amax,
                         tree.params.criterion)
    if (k, i) != (node.best_k, node.best_i):
        report.flag(path, "best split not the grid argmin",
                    "stored (%d,%d) argmin (%d,%d)" % (node.best_k, node.best_i, k, i))
    elif thr[k, i] != node.best_w:
        report.flag(path, "best threshold value stale")
    if amin[node.best_k] == amax[node.best_k]:
        report.flag(path, "split on an unusable slot")
    axis = int(attrs[node.best_k])
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
        _audit_node(tree, child, path + lab, report, leaf_ids, rows)


def audit_tree(tree, label="tree", owners=None):
    """Recompute every cached statistic from raw data and report drift.

    Checks id conservation, counts, ranges (on untagged nodes), per-cell
    b/c counts against direct comparison counting, the kernel's scores of
    those recounts against the scalar criterion, that each stored split is
    best_cells of its node's recount, and child partitions.  It also checks
    the pool's bookkeeping: a node's row is -1 (no grid) or a row below the
    pool's end that is not on the free list and that no other node holds.
    owners maps the rows already seen to their nodes; pass one dict to the
    audits of trees that share a pool.  Returns an AuditReport.
    """
    report = AuditReport()
    leaf_ids, rows = [], []
    _audit_node(tree, tree.root, label, report, leaf_ids, rows)
    pool = tree.pool
    owners = {} if owners is None else owners
    free = set(pool.free)
    for row, where in rows:
        if not (type(row) is int and 0 <= row < pool.end):
            report.flag(where, "grid row out of range", "row %r, pool end %d" % (row, pool.end))
            continue
        if row in owners:
            report.flag(where, "grid row shared with another node",
                        "row %d, also at %s" % (row, owners[row]))
        else:
            owners[row] = where
        if row in free:
            report.flag(where, "grid row on the free list", "row %d" % row)
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
