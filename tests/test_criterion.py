"""Gini and entropy scoring, scalar and matrix forms."""

from __future__ import annotations

import numpy as np
import pytest

from dynforest.criterion import SplitCounts, entropy, gini, score_matrix


def test_gini_frozen_values():
    # (2 left, 1 pos | 2 right, 1 pos): both sides 50/50 -> 0.5
    assert gini(SplitCounts(2, 1, 2, 1)) == 0.5
    # perfectly separating split
    assert gini(SplitCounts(3, 3, 3, 0)) == 0.0
    # empty side contributes nothing: score is the other side's impurity
    assert gini(SplitCounts(0, 0, 4, 2)) == 0.5
    # (4,1 | 4,3): each side 1 - (1+9)/16 = 0.375
    assert gini(SplitCounts(4, 1, 4, 3)) == pytest.approx(0.375, abs=1e-15)


def test_entropy_frozen_values():
    assert entropy(SplitCounts(2, 1, 2, 1)) == 1.0
    assert entropy(SplitCounts(3, 3, 3, 0)) == 0.0
    assert entropy(SplitCounts(0, 0, 4, 2)) == 1.0
    # h(1/4) = 0.25*2 + 0.75*log2(4/3) on both sides
    assert entropy(SplitCounts(4, 1, 4, 3)) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_unbalanced_sides_are_sample_weighted():
    # left (9 samples, pure) right (1 sample, pure): children pure -> 0
    assert gini(SplitCounts(9, 9, 1, 0)) == 0.0
    # left (8,4) impure, right (2,2) pure: 0.8 * 0.5 + 0 = 0.4
    assert gini(SplitCounts(8, 4, 2, 2)) == pytest.approx(0.4, abs=1e-15)
    # entropy weights by child size too: 0.8 * 1.0
    assert entropy(SplitCounts(8, 4, 2, 2)) == pytest.approx(0.8, abs=1e-15)


def test_validation_errors():
    for bad in (SplitCounts(-1, 0, 2, 1), SplitCounts(2, 3, 2, 1),
                SplitCounts(2, 1, 2, 3), SplitCounts(0, 0, 0, 0)):
        with pytest.raises(ValueError):
            gini(bad)
        with pytest.raises(ValueError):
            entropy(bad)


def test_bounds_and_symmetries_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(500):
        nl, nr = int(rng.integers(0, 50)), int(rng.integers(0, 50))
        if nl + nr == 0:
            continue
        pl, pr = int(rng.integers(0, nl + 1)), int(rng.integers(0, nr + 1))
        g = gini(SplitCounts(nl, pl, nr, pr))
        h = entropy(SplitCounts(nl, pl, nr, pr))
        assert 0.0 <= g <= 0.5
        assert 0.0 <= h <= 1.0
        # side order is irrelevant
        assert g == gini(SplitCounts(nr, pr, nl, pl))
        assert h == entropy(SplitCounts(nr, pr, nl, pl))
        # so is which class is called positive
        assert g == pytest.approx(gini(SplitCounts(nl, nl - pl, nr, nr - pr)), abs=1e-12)
        assert h == pytest.approx(entropy(SplitCounts(nl, nl - pl, nr, nr - pr)), abs=1e-12)


def test_score_matrix_matches_scalar_reference():
    rng = np.random.default_rng(21)
    for crit_name, scalar in (("gini", gini), ("entropy", entropy)):
        for _ in range(40):
            n = int(rng.integers(1, 60))
            n_pos = int(rng.integers(0, n + 1))
            b = rng.integers(0, n + 1, size=(3, 7))
            # feasible positive counts: the left side can hold at most
            # min(b, n_pos) positives and at most n - n_pos negatives
            lo = np.maximum(0, b - (n - n_pos))
            hi = np.minimum(b, n_pos)
            c = rng.integers(lo, hi + 1)
            got = score_matrix(b, c, n, n_pos, crit_name)
            for k in range(3):
                for i in range(7):
                    want = scalar(SplitCounts(int(b[k, i]), int(c[k, i]),
                                              n - int(b[k, i]), n_pos - int(c[k, i])))
                    assert got[k, i] == pytest.approx(want, abs=1e-12)


def test_score_matrix_handles_empty_sides_without_warnings():
    b = np.array([[0, 5]])
    c = np.array([[0, 3]])
    with np.errstate(all="raise"):  # any fp warning escalates
        out = score_matrix(b, c, 5, 3, "gini")
    assert out[0, 0] == pytest.approx(0.48)  # all right: parent impurity
    assert out[0, 1] == pytest.approx(0.48)  # all left: same


def test_score_matrix_input_validation():
    with pytest.raises(ValueError):
        score_matrix(np.zeros((1, 1)), np.zeros((1, 1)), 4, 2, "nope")
    with pytest.raises(ValueError):
        score_matrix(np.zeros((1, 1)), np.zeros((1, 1)), 0, 0, "gini")


def test_score_matrix_with_array_totals_equals_per_node_calls():
    # a frontier of m nodes scored in one call, totals broadcast per node
    rng = np.random.default_rng(23)
    m, p, s = 9, 4, 6
    n = rng.integers(1, 80, size=m)
    n_pos = rng.integers(0, n + 1)
    b = rng.integers(0, n[:, None, None] + 1, size=(m, p, s))
    lo = np.maximum(0, b - (n - n_pos)[:, None, None])
    hi = np.minimum(b, n_pos[:, None, None])
    c = rng.integers(lo, hi + 1)
    for crit_name in ("gini", "entropy"):
        got = score_matrix(b, c, n[:, None, None], n_pos[:, None, None], crit_name)
        assert got.shape == (m, p, s)
        for j in range(m):
            want = score_matrix(b[j], c[j], int(n[j]), int(n_pos[j]), crit_name)
            assert np.array_equal(got[j], want), (crit_name, j)


def test_score_matrix_rejects_any_empty_node_total():
    b = np.zeros((2, 1, 1))
    with pytest.raises(ValueError, match="positive"):
        score_matrix(b, b, np.array([[[3]], [[0]]]), np.zeros((2, 1, 1)), "gini")


def per_side_gini(b, c, n, n_pos):
    """The per-side Gini expression, each side scored on its own arrays."""
    nl = np.asarray(b, dtype=np.float64)
    pl = np.asarray(c, dtype=np.float64)

    def weighted_side(nv, pv):
        qv = nv - pv
        return nv * (1.0 - (pv * pv + qv * qv) / np.maximum(nv * nv, 1.0))

    return (weighted_side(nl, pl) + weighted_side(n - nl, n_pos - pl)) / n


def test_stacked_gini_equals_the_per_side_expression_bit_for_bit():
    """score_matrix scores both sides in one stacked pass: the same float
    operations in the same order, so the same bits, on int32 stacks with
    broadcast totals, Python-int totals, empty sides and all-empty nodes."""
    rng = np.random.default_rng(24)
    for m, p, s in ((1, 5, 15), (4, 5, 15), (37, 3, 7), (300, 2, 4)):
        n = rng.integers(1, 200, size=m)
        n[0] = 1
        n_pos = rng.integers(0, n + 1)
        b = rng.integers(0, n[:, None, None] + 1, size=(m, p, s)).astype(np.int32)
        b[:, 0, 0] = 0  # the left side empty
        b[:, -1, -1] = n  # the right side empty
        lo = np.maximum(0, b - (n - n_pos)[:, None, None])
        hi = np.minimum(b, n_pos[:, None, None])
        c = rng.integers(lo, hi + 1).astype(np.int32)
        totals = n[:, None, None], n_pos[:, None, None]
        with np.errstate(all="raise"):
            got = score_matrix(b, c, *totals, "gini")
        assert got.dtype == np.float64 and got.shape == (m, p, s)
        assert got.tobytes() == per_side_gini(b, c, *totals).tobytes()
        one = score_matrix(b[-1], c[-1], int(n[-1]), int(n_pos[-1]), "gini")
        assert one.tobytes() == per_side_gini(b[-1], c[-1], int(n[-1]), int(n_pos[-1])).tobytes()
    # totals broadcast over a larger shape than the counts'
    b, c = np.array([[0, 2, 4]]), np.array([[0, 1, 3]])
    n, n_pos = np.array([[[4]], [[6]]]), np.array([[[3]], [[3]]])
    got = score_matrix(b, c, n, n_pos, "gini")
    assert got.shape == (2, 1, 3)
    assert got.tobytes() == per_side_gini(b, c, n, n_pos).tobytes()
