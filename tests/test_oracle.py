"""The reference implementations must agree with the fast paths, and the
consistency checkers must actually catch corruption."""

from __future__ import annotations

import numpy as np
import pytest

from dynforest.forest import Forest, ForestParams
from dynforest.oracle import (auc_pairs, forest_audit, naive_retrain,
                              occupancy_check, sortmerge_best_split)
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams


def tiny_forest(seed=0, n=300):
    ds = make_dataset(n, d=6, seed=seed)
    params = ForestParams(n_trees=8, occupancy=0.5, seed=seed,
                          tree=TreeParams(max_depth=7, n_thresholds=5))
    return ds, Forest.train(ds, params)


def test_sortmerge_frozen_case():
    b, c = sortmerge_best_split([3.0, 1.0, 2.0, 2.0], [True, False, True, False],
                                [0.5, 2.0, 4.0])
    assert b.tolist() == [0, 3, 4]
    assert c.tolist() == [0, 1, 2]


def test_sortmerge_empty_samples():
    b, c = sortmerge_best_split([], [], [1.0, 2.0])
    assert b.tolist() == [0, 0] and c.tolist() == [0, 0]


def test_naive_retrain_uses_only_live_samples():
    ds, forest = tiny_forest()
    for sample_id in (1, 2, 3, 50, 51):
        forest.delete(sample_id)
    fresh = naive_retrain(ds, forest.params)
    assigned = np.flatnonzero((fresh.assignment >= 0).all(axis=1))
    assert np.array_equal(assigned, ds.live_ids())
    assert occupancy_check(fresh).ok
    assert forest_audit(fresh).ok


def test_naive_retrain_seed_override():
    ds, forest = tiny_forest()
    X = make_dataset(50, d=6, seed=99).X[:50]
    same = naive_retrain(ds, forest.params)
    other = naive_retrain(ds, forest.params, seed=12345)
    assert np.array_equal(same.predict_many(X), forest.predict_many(X))
    assert not np.array_equal(other.predict_many(X), forest.predict_many(X))
    assert forest.params.seed != 12345  # original params untouched


def test_occupancy_check_catches_missing_assignment():
    _, forest = tiny_forest(seed=1)
    forest.assignment[7] = -1
    report = occupancy_check(forest)
    assert not report.ok
    assert any("live id missing" in str(v) for v in report.violations)


def test_occupancy_check_catches_dead_assignment():
    ds, forest = tiny_forest(seed=2)
    row = forest.assignment[5].copy()
    forest.delete(5)
    forest.assignment[5] = row  # resurrect the entry behind the forest's back
    report = occupancy_check(forest)
    assert not report.ok
    assert any("dead or unknown" in str(v) for v in report.violations)


def test_occupancy_check_catches_wrong_tree_count():
    _, forest = tiny_forest(seed=3)
    forest.assignment[9] = forest.assignment[9, 0]  # k copies of one tree
    report = occupancy_check(forest)
    assert not report.ok
    assert any("distinct trees" in str(v) for v in report.violations)


def test_occupancy_check_catches_tree_membership_drift():
    _, forest = tiny_forest(seed=4)
    tree = forest.trees[0]
    tree.root.ids = tree.root.ids[1:]  # drop a sample the assignment promises
    report = occupancy_check(forest)
    assert not report.ok
    assert any("root ids disagree" in str(v) for v in report.violations)


def test_forest_audit_catches_stale_counts():
    _, forest = tiny_forest(seed=5)
    node = forest.trees[2].root
    assert node.slots is not None
    node.slots.c[0, -1] += 1
    report = forest_audit(forest)
    assert not report.ok
    assert any("c counts" in str(v) for v in report.violations)


def test_forest_audit_passes_on_healthy_forest():
    _, forest = tiny_forest(seed=6)
    report = forest_audit(forest)
    assert report.ok
    assert report.nodes_checked > len(forest.trees)  # trees plus their nodes


def test_auc_pairs_frozen_values():
    assert auc_pairs([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0
    assert auc_pairs([1, 0], [0.5, 0.5]) == 0.5
    assert auc_pairs([1, 0, 1, 0], [0.1, 0.9, 0.8, 0.2]) == 0.25
    assert auc_pairs([0, 1], [0.9, 0.1]) == 0.0
    with pytest.raises(ValueError, match="each class"):
        auc_pairs([1, 1], [0.5, 0.6])