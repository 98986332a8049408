"""Independent reference implementations used to validate the fast paths.

Nothing here shares code with the hot paths it checks: counts come from a
pure-Python sort-merge instead of vectorized binary search, routing reads
each split from its node's grid instead of the stored axis and threshold,
retraining builds a fresh forest instead of patching one, and the
occupancy checker rescans every tree.  Slow and simple on purpose.
score_candidates is the exception: it scores one slot through the
per-slot prefix_counts of the update path, so that path can be checked
against sortmerge_best_split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import criterion as crit
from .audit import AuditReport
from .forest import Forest, ForestParams
from .tree import audit_tree, prefix_counts


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
    slots.attrs[best_k] and threshold slots.thr[best_k, best_i], one row
    and one node at a time; a row goes left when its value is at or below
    the threshold.  Raises ValueError on reaching a tagged node.
    """
    node = tree.root
    while node.left is not None:
        blk = node.slots
        attr = blk.attrs[node.best_k]
        node = node.left if x[attr] <= blk.thr[node.best_k, node.best_i] else node.right
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
    """occupancy_check plus a full statistics audit of every tree."""
    report = occupancy_check(forest)
    for t, tree in enumerate(forest.trees):
        report.merge(audit_tree(tree, label="tree %d" % t))
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
