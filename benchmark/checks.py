"""Output checks that do not depend on today's outputs.

Each returns a list of problems (empty when the check passes).  They run
outside the timed phases.
"""

from __future__ import annotations

import numpy as np


def auc(y, scores):
    """Area under the ROC curve from midranks: the share of (positive,
    negative) pairs ordered correctly, ties counting half."""
    y = np.asarray(y)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(len(s))
    start = 0
    # runs of equal scores share the mean of the 1-based ranks they span
    bounds = np.flatnonzero(np.diff(sorted_s)) + 1
    for end in np.append(bounds, len(s)):
        ranks[order[start:end]] = (start + 1 + end) / 2.0
        start = end
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def probabilities(name, p):
    outside = int((~((np.asarray(p) >= 0.0) & (np.asarray(p) <= 1.0))).sum())
    return ["%s: %d probabilities outside [0, 1]" % (name, outside)] if outside else []


def audit(oracle, forest, trees, label):
    """occupancy_check over the whole forest plus the full statistics
    audit of the given trees."""
    report = oracle.occupancy_check(forest)
    for t in trees:
        report.merge(oracle.audit_tree(forest.trees[t], label="tree %d" % t))
    if report.ok:
        return []
    return ["%s: %s" % (label, line) for line in report.summary().splitlines()[:6]]
