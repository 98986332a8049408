"""The reference implementations must agree with the fast paths, and the
consistency checkers must actually catch corruption."""

from __future__ import annotations

import numpy as np
import pytest

from dynforest.data import dataset_from_arrays
from dynforest.forest import Forest, ForestParams
from dynforest.oracle import (auc_pairs, forest_audit, naive_retrain, occupancy_check,
                              reference_fractions, reference_leaf, sortmerge_best_split)
from dynforest.snapshot import load, save
from dynforest.synth import make_arrays, make_dataset
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


def walk(forest):
    """Every node of every tree of the forest."""
    for tree in forest.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.extend((node.left, node.right))


def test_forest_audit_catches_a_split_axis_that_disagrees_with_its_grid():
    _, forest = tiny_forest(seed=7)
    node = [node for node in walk(forest) if node.left is not None][5]
    node.axis = (node.axis + 1) % forest.ds.n_attrs
    report = forest_audit(forest)
    assert not report.ok
    assert any("split axis is not the best slot's attribute" in str(v)
               for v in report.violations)


def test_forest_audit_catches_a_split_axis_on_a_leaf_or_tagged_node():
    _, forest = tiny_forest(seed=8)
    leaf = next(node for node in walk(forest) if node.left is None)
    leaf.axis = 0
    assert any("leaf keeps a split axis" in str(v) for v in forest_audit(forest).violations)
    leaf.axis = -1
    assert forest_audit(forest).ok
    for sample_id in range(100):
        forest.delete(sample_id)
    tagged = next(node for node in walk(forest) if node.tagged)
    tagged.axis = 2
    assert any("tagged node keeps a split axis" in str(v)
               for v in forest_audit(forest).violations)


def reference_case(case, criterion, tmp_path):
    """A 12-tree forest with no tags: as trained, after seeded deletes and
    adds and a flush, or that forest after save and load."""
    X, y = make_arrays(360, d=6, seed=21)
    forest = Forest.train(dataset_from_arrays(X[:300], y[:300]),
                          ForestParams(n_trees=12, occupancy=0.5, seed=21,
                                       tree=TreeParams(max_depth=7, n_thresholds=5,
                                                       criterion=criterion)))
    if case != "trained":
        rng = np.random.default_rng(22)
        doomed = rng.choice(300, 60, replace=False).tolist()
        for j, sample_id in enumerate(doomed):
            forest.delete(sample_id)
            if j % 2:
                forest.add(X[300 + j], y[300 + j])
        assert forest.tagged_count() > 0
        forest.flush()
    if case == "loaded":
        save(forest, tmp_path / "model.bin")
        forest = load(tmp_path / "model.bin")
    return forest


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("case", ["trained", "updated", "loaded"])
def test_fast_routers_equal_the_reference_router_bit_for_bit(tmp_path, case, criterion):
    forest = reference_case(case, criterion, tmp_path)
    # held-out rows, and live training rows, which sit on range boundaries
    rows = np.vstack((make_arrays(80, d=6, seed=23)[0], forest.ds.X[forest.ds.live_ids()[:40]]))
    fractions = reference_fractions(forest, rows)
    for tree in forest.trees:
        n, n_pos = tree.query_many(rows)
        assert [(int(a), int(b)) for a, b in zip(n, n_pos)] == \
            [reference_leaf(tree, x) for x in rows]
    assert forest.predict_many(rows).tobytes() == fractions.mean(axis=0).tobytes()
    singles = [forest.predict(x) for x in rows]
    assert singles == [float(np.mean(column)) for column in fractions.T.tolist()]
    assert forest.tagged_count() == 0 and forest_audit(forest).ok


def test_auc_pairs_frozen_values():
    assert auc_pairs([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0
    assert auc_pairs([1, 0], [0.5, 0.5]) == 0.5
    assert auc_pairs([1, 0, 1, 0], [0.1, 0.9, 0.8, 0.2]) == 0.25
    assert auc_pairs([0, 1], [0.9, 0.1]) == 0.0
    with pytest.raises(ValueError, match="each class"):
        auc_pairs([1, 1], [0.5, 0.6])