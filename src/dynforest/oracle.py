"""Independent reference implementations used to validate the fast paths.

Nothing here shares code with the hot paths it checks: counts come from a
pure-Python sort-merge or a per-slot binary search instead of the
stacked comparisons of growth and updates, routing reads each split from
its node's grid instead of the stored axis and threshold, retraining
builds a fresh forest instead of patching one, and the occupancy checker
rescans every tree.  Slow and simple on purpose.  reference_delete_group
walks one tree depth first, a node per step, and settles each node by its
own per-node rule: a min/max rescan, then fresh thresholds and
prefix_counts per changed slot, so that the range-change step that every
update shares in tree.py can be checked against it.  Its draws come from
splitmix_word, a pure-Python copy of the hash tree.key_words vectorizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import criterion as crit
from .audit import AuditReport
from .forest import Forest, ForestParams
from .tree import audit_tree, best_cells


@dataclass
class AttributeSlot:
    """One candidate attribute's statistics at a node.

    thresholds are sorted ascending; b[i] counts node samples with value
    at or below thresholds[i], c[i] the positives among them.  A slot
    whose observed range is a single point scores +inf everywhere.
    """

    attr: int
    a_min: float
    a_max: float
    thresholds: np.ndarray
    b: np.ndarray
    c: np.ndarray
    score: np.ndarray


MASK64 = (1 << 64) - 1


def splitmix_word(key, i):
    """Word i of a 64-bit key, as a Python int: the (i + 1)-th output of
    SplitMix64 started at key (Steele, Lea and Flood, OOPSLA 2014)."""
    z = (key + (i + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix_uniforms(key, first, count):
    """Words first to first + count - 1 of key as float uniforms in
    [0, 1), each word's top 53 bits."""
    return np.array([(splitmix_word(key, i) >> 11) / 2.0 ** 53
                     for i in range(first, first + count)])


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


def score_candidates(ids, ds, slot, criterion="gini"):
    """Recompute a slot's counts and scores from raw samples.

    Returns a fresh AttributeSlot; `slot` only supplies the attribute,
    range and thresholds.  Degenerate ranges (and empty nodes) score +inf.
    """
    ids = np.asarray(ids, dtype=np.int64)
    vals = ds.X[ids, slot.attr]
    positive = ds.y[ids] == 1
    b, c = prefix_counts(vals, positive, slot.thresholds)
    n, n_pos = len(ids), int(positive.sum())
    if n == 0 or slot.a_min == slot.a_max:
        score = np.full(len(slot.thresholds), np.inf)
    else:
        score = crit.score_matrix(b, c, n, n_pos, criterion)
    return AttributeSlot(slot.attr, slot.a_min, slot.a_max,
                         slot.thresholds.copy(), b, c, score)


def sortmerge_best_split(values, positive, thresholds):
    """Prefix counts by explicit sort-merge; the reference for prefix_counts.

    Sorts the sample values, then advances one cursor over the sorted
    values and one over the (already sorted) thresholds, accumulating
    how many values, and how many positive values, sit at or below each
    threshold.

    Returns
    -------
    b, c : ndarray of int64, shape (len(thresholds),)
    """
    values = list(values)
    positive = list(positive)
    order = sorted(range(len(values)), key=lambda i: values[i])
    b = np.zeros(len(thresholds), np.int64)
    c = np.zeros(len(thresholds), np.int64)
    j = 0
    seen = 0
    seen_pos = 0
    for i, w in enumerate(thresholds):
        while j < len(order) and values[order[j]] <= w:
            seen += 1
            seen_pos += 1 if positive[order[j]] else 0
            j += 1
        b[i] = seen
        c[i] = seen_pos
    return b, c


def reference_leaf(tree, x):
    """(n, n_pos) at the leaf that row x reaches in a tree with no tags.

    Each split is read from its node's grid, as attribute
    attrs[best_k] and threshold thr[best_k, best_i] of its pool row, one
    row and one node at a time; a row goes left when its value is at or below
    the threshold.  Raises ValueError on reaching a tagged node.
    """
    node, pool = tree.root, tree.pool
    while node.left is not None:
        attr = pool.attrs[node.row, node.best_k]
        node = node.left if x[attr] <= pool.thr[node.row, node.best_k, node.best_i] else node.right
    if node.tagged:
        raise ValueError("row reached a tagged node; flush the tree first")
    return len(node.ids), node.n_pos


def reference_fractions(forest, X):
    """Positive fraction of the leaf each row of X reaches, per tree, as a
    (n_trees, len(X)) array, routed by reference_leaf; an empty leaf gives
    the forest's prior.  Averaging a column gives the row's prediction."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((len(forest.trees), len(X)))
    for t, tree in enumerate(forest.trees):
        for r, x in enumerate(X):
            n, n_pos = reference_leaf(tree, x)
            out[t, r] = n_pos / n if n else forest.prior
    return out


def reference_delete_group(tree, group):
    """Delete a group of samples from one tree depth first; returns the
    nodes it tagged, in preorder.

    At each node the group leaves the ids, its values are taken out of the
    counts one cell comparison at a time, the node is settled by
    _reference_settle, and the group is split by the node's split between
    its children, left first.  It draws as tree.py's module docstring
    says (Randomness): from the call word, word 3i + 2 of the tree's key
    for the group's smallest id i, each node at the words of its depth and
    rank, so tree.delete_groups agrees with it bit for bit.
    """
    group = np.asarray(group, dtype=np.int64)
    tagged = []
    if len(group):
        member = np.zeros(tree.ds.next_id, bool)
        member[group] = True
        word = splitmix_word(tree.key, 3 * int(group.min()) + 2)
        _reference_delete(tree, tree.root, group, member, tagged, word, {})
    return tagged


def _reference_delete(tree, node, group, member, tagged, word, visited):
    """Delete group below node; word is the call word, and visited counts
    the nodes visited so far per depth."""
    keep = node.ids[~member[node.ids]]
    missing = len(group) - (len(node.ids) - len(keep))
    if missing:
        raise ValueError("%d of %d ids not present at depth %d; tree and "
                         "routing disagree" % (missing, len(group), node.depth))
    rank = visited.get(node.depth, 0)
    visited[node.depth] = rank + 1
    node.ids = keep
    labels = tree.ds.y[group] == 1
    node.n_pos -= int(labels.sum())
    pool, r = tree.pool, node.row
    hit = np.zeros(pool.p, bool)
    if r != -1:
        vals = tree.ds.X[group[:, None], pool.attrs[r]]
        covered = pool.thr[r] >= vals[:, :, None]
        pool.b[r] -= covered.sum(axis=0)
        pool.c[r] -= covered[labels].sum(axis=0)
        hit = ((vals == pool.amin[r]) | (vals == pool.amax[r])).any(axis=0)
    block = ((node.depth << 32) + rank) * (tree.p * tree.s + 1)
    tag = _reference_settle(tree, node, hit, word, block)
    if tag is not None:
        tagged.append(tag)
    if node.left is None:
        return
    go_left = tree.ds.X[group, node.axis] <= node.best_w
    for child, side in ((node.left, go_left), (node.right, ~go_left)):
        if side.any():
            _reference_delete(tree, child, group[side], member, tagged, word, visited)


def _reference_settle(tree, node, hit, word, block):
    """Settle one node after a deletion patched its ids and counts; hit
    marks the slots where a deleted value sat on a range boundary, and the
    node draws words block onward of the call word word.  Returns the
    node if it was tagged here, else None."""
    tree.telemetry.nodes_updated += 1
    pool, r = tree.pool, node.row
    stopped = node.left is not None and tree._stop(node.depth, node.n, node.n_pos)
    if r != -1 and node.n == 0:
        pool.amin[r] = pool.amax[r] = pool.thr[r] = 0.0
    elif r != -1:
        positive = tree.ds.y[node.ids] == 1
        redrawn = 0
        for k in np.flatnonzero(hit).tolist():
            vals = tree.ds.X[node.ids, pool.attrs[r, k]]
            lo, hi = vals.min(), vals.max()
            if (lo, hi) == (pool.amin[r, k], pool.amax[r, k]):
                continue
            pool.amin[r, k], pool.amax[r, k] = lo, hi
            if not (node.tagged or stopped):
                u = splitmix_uniforms(word, block + k * tree.s, tree.s)
                thr = pool.thr[r, k] = np.sort(lo + (hi - lo) * u)
                pool.b[r, k], pool.c[r, k] = prefix_counts(vals, positive, thr)
                redrawn += 1
        if redrawn:
            tree.telemetry.attrs_resampled += redrawn
            tree.telemetry.range_resample_samples += node.n
    key = splitmix_word(word, block + tree.p * tree.s)
    if stopped:
        return tree._tag(node, "tags_stopped", key)
    if node.tagged or node.left is None:
        return None
    k, i, usable = best_cells(pool.b[r], pool.c[r], node.n, node.n_pos,
                              pool.amin[r] == pool.amax[r], tree.params.criterion)
    if not usable or (k, i) != (node.best_k, node.best_i) or pool.thr[r, k, i] != node.best_w:
        return tree._tag(node, "tags_moved", key)
    return None


def naive_retrain(ds, params, seed=None):
    """Train a brand-new forest on ds's current live samples.

    This is the from-scratch baseline that an unlearned forest must match
    in distribution.  seed, when given, replaces params.seed.
    """
    if seed is not None:
        params = replace(params, seed=seed)
    return Forest.train(ds, params)


def occupancy_check(forest):
    """Verify the sample-to-tree assignment invariants by full rescan.

    Checks that every live id's row names k distinct trees in range, that
    every other row is all -1, and that every tree's root covers exactly
    the ids assigned to it.
    """
    report = AuditReport()
    n_trees = len(forest.trees)
    k = forest.k
    unassigned = [-1] * k
    rows = forest.assignment.tolist()
    rows += [unassigned] * (forest.ds.next_id - len(rows))
    live = set(int(i) for i in forest.ds.live_ids())
    expect = [set() for _ in forest.trees]
    for sid, row in enumerate(rows):
        if sid not in live:
            if row != unassigned:
                report.flag("assignment", "dead or unknown id present", "id %d" % sid)
            continue
        if row == unassigned:
            report.flag("assignment", "live id missing", "id %d" % sid)
            continue
        if len(set(row)) != k:
            report.flag("assignment", "id %d not in exactly %d distinct trees" % (sid, k),
                        str(row))
        for t in row:
            if not 0 <= t < n_trees:
                report.flag("assignment", "id %d names tree %d out of range" % (sid, t))
            else:
                expect[t].add(sid)
    for t, tree in enumerate(forest.trees):
        report.nodes_checked += 1
        have = set(int(i) for i in tree.root.ids)
        if have != expect[t]:
            report.flag("tree %d" % t, "root ids disagree with assignment",
                        "%d assigned, %d present, %d common"
                        % (len(expect[t]), len(have), len(have & expect[t])))
    return report


def forest_audit(forest):
    """occupancy_check plus a full statistics audit of every tree, and a
    check that the trees share one grid pool whose rows in use are the
    rows their nodes hold: no row held twice, none leaked."""
    report = occupancy_check(forest)
    owners = {}
    for t, tree in enumerate(forest.trees):
        report.merge(audit_tree(tree, label="tree %d" % t, owners=owners))
    pool = forest.trees[0].pool
    if any(tree.pool is not pool for tree in forest.trees):
        report.flag("grid pool", "trees do not share one grid pool")
    elif len(set(pool.free)) != len(pool.free) or pool.in_use() != len(owners):
        report.flag("grid pool", "rows in use are not the rows nodes hold",
                    "%d rows in use, %d held, %d on the free list (%d distinct)"
                    % (pool.in_use(), len(owners), len(pool.free), len(set(pool.free))))
    return report


def auc_pairs(y_true, scores):
    """All-pairs AUC: fraction of (positive, negative) pairs ranked
    correctly, ties counting half.  Quadratic; the reference for the
    rank-based implementation."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    pos = s[y == 1]
    neg = s[y != 1]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs at least one sample of each class")
    total = 0.0
    for sp in pos:
        total += (sp > neg).sum() + 0.5 * (sp == neg).sum()
    return total / (len(pos) * len(neg))
