"""Impurity criteria for binary splits: Gini index and Shannon entropy.

Both score a candidate split from its left/right sample and positive counts
alone.  Lower is better; an empty side contributes zero impurity.  Gini
lands in [0, 0.5], entropy (in bits) in [0, 1].

The matrix forms score a whole (p attributes x s thresholds) candidate grid,
or the grids of a whole frontier of nodes, in one shot from cached count
matrices; the tree hot path uses those, the scalar forms serve as the
independently-coded reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np


@dataclass(frozen=True)
class SplitCounts:
    """Counts for one candidate split of a node's samples."""

    n_left: int
    pos_left: int
    n_right: int
    pos_right: int

    def validate(self):
        for name in ("n_left", "pos_left", "n_right", "pos_right"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)
        if self.pos_left > self.n_left:
            raise ValueError("pos_left exceeds n_left")
        if self.pos_right > self.n_right:
            raise ValueError("pos_right exceeds n_right")
        if self.n_left + self.n_right == 0:
            raise ValueError("split has no samples")


def _gini_side(n, pos):
    if n == 0:
        return 0.0
    neg = n - pos
    return 1.0 - (pos * pos + neg * neg) / (n * n)


def _entropy_side(n, pos):
    if n == 0:
        return 0.0
    h = 0.0
    for cnt in (pos, n - pos):
        if cnt:
            p = cnt / n
            h -= p * log2(p)
    return h


def gini(counts):
    """Sample-weighted Gini impurity of a split."""
    counts.validate()
    n = counts.n_left + counts.n_right
    return (counts.n_left * _gini_side(counts.n_left, counts.pos_left)
            + counts.n_right * _gini_side(counts.n_right, counts.pos_right)) / n


def entropy(counts):
    """Sample-weighted Shannon entropy of a split, in bits."""
    counts.validate()
    n = counts.n_left + counts.n_right
    return (counts.n_left * _entropy_side(counts.n_left, counts.pos_left)
            + counts.n_right * _entropy_side(counts.n_right, counts.pos_right)) / n


CRITERIA = {"gini": gini, "entropy": entropy}


def _gini_matrix(nl, pl, nr, pr, n):
    def weighted_side(nv, pv):
        # an empty side has pv = qv = 0: the floored denominator keeps the
        # quotient 0 and the side's weight nv = 0 zeroes its term
        qv = nv - pv
        return nv * (1.0 - (pv * pv + qv * qv) / np.maximum(nv * nv, 1.0))

    return (weighted_side(nl, pl) + weighted_side(nr, pr)) / n


def _entropy_matrix(nl, pl, nr, pr, n):
    def side(nv, pv):
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.zeros_like(nv)
            for cnt in (pv, nv - pv):
                frac = cnt / nv
                term = np.where(cnt > 0, -frac * np.log2(frac), 0.0)
                h = h + np.where(nv > 0, term, 0.0)
        return h

    return (nl * side(nl, pl) + nr * side(nr, pr)) / n


def score_matrix(b, c, n, n_pos, criterion="gini"):
    """Score every candidate in a cached count grid.

    Parameters
    ----------
    b : ndarray of int, any shape
        Samples at or below each candidate threshold (left counts).
    c : ndarray of int, same shape
        Positive samples among those.
    n, n_pos : int or ndarray of int broadcasting against b
        Node totals; right counts follow as n - b and n_pos - c.  Arrays
        score the grids of several nodes at once, e.g. b of shape
        (m, p, s) with n of shape (m, 1, 1).
    criterion : 'gini' or 'entropy'

    Returns
    -------
    ndarray of float64, same shape as b.
    """
    if criterion not in CRITERIA:
        raise ValueError("unknown criterion %r" % (criterion,))
    if np.asarray(n).min(initial=1) <= 0:  # any node total non-positive
        raise ValueError("n must be positive")
    nl = np.asarray(b, dtype=np.float64)
    pl = np.asarray(c, dtype=np.float64)
    nr = n - nl
    pr = n_pos - pl
    if criterion == "gini":
        return _gini_matrix(nl, pl, nr, pr, n)
    return _entropy_matrix(nl, pl, nr, pr, n)
