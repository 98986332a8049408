"""The reference implementations must agree with the fast paths, and the
consistency checkers must actually catch corruption."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from dynforest.data import dataset_from_arrays
from dynforest.forest import Forest, ForestParams
from dynforest.oracle import (auc_pairs, forest_audit, naive_retrain, occupancy_check,
                              reference_fractions, reference_leaf, sortmerge_best_split,
                              splitmix_uniforms, splitmix_word)
from dynforest.snapshot import load, save
from dynforest.synth import make_arrays, make_dataset
from dynforest.tree import TreeParams, key_words, uniforms


def tiny_forest(seed=0, n=300):
    ds = make_dataset(n, d=6, seed=seed)
    params = ForestParams(n_trees=8, occupancy=0.5, seed=seed,
                          tree=TreeParams(max_depth=7, n_thresholds=5))
    return ds, Forest.train(ds, params)


def test_key_words_equal_the_pure_python_splitmix64():
    """tree.key_words against oracle.splitmix_word, word by word, at edge
    and random keys, and at word numbers on both sides of the depth
    boundaries of an update's blocks (depth * 2**32 * (p*s + 1)); the
    words come back as uint64 whatever integer type holds the keys."""
    # SplitMix64's first output from state 0
    assert splitmix_word(0, 0) == 0xE220A8397B1DCDAF
    rng = np.random.default_rng(5)
    keys = [0, 1, 2 ** 63, 2 ** 64 - 1] + [int(k) for k in rng.integers(0, 2 ** 64, 6,
                                                                          dtype=np.uint64)]
    step = 2 ** 32 * 121  # one depth of blocks at p*s = 120
    index = [0, 1, 2, 119, 120, 121] + [depth * step + off for depth in (1, 2, 19, 20)
                                        for off in (-2, -1, 0, 1, 120)]
    words = key_words(np.array(keys, np.uint64)[:, None], np.array(index))
    assert words.dtype == np.uint64 and words.shape == (len(keys), len(index))
    assert words.tolist() == [[splitmix_word(k, i) for i in index] for k in keys]
    for key in (2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int64(-1), 12345, np.int64(12345)):
        got = key_words(key, index)
        assert got.dtype == np.uint64
        assert got.tolist() == [splitmix_word(int(key) % 2 ** 64, i) for i in index]
    got = key_words(np.array([-1, 7], np.int64)[:, None], np.arange(3))
    assert got.dtype == np.uint64
    assert got.tolist() == [[splitmix_word(k, i) for i in range(3)] for k in (2 ** 64 - 1, 7)]


def test_key_words_of_a_0d_key_or_index_warn_nothing():
    """A 0-d key or index gives its words as a 1-d array without numpy's
    scalar overflow warning: the hash wraps mod 2**64 on purpose."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = [(np.array([11], np.uint64), 24691, [11], [24691]),
                 (11, 24691, [11], [24691]),
                 (np.uint64(2 ** 64 - 1), np.int64(7), [2 ** 64 - 1], [7]),
                 (np.uint64(5), [0, 2 ** 40], [5], [0, 2 ** 40]),
                 (np.array(3, np.uint64), np.array(9), [3], [9])]
        for key, index, keys, words in cases:
            got = key_words(key, index)
            assert got.dtype == np.uint64 and got.ndim == 1
            assert got.tolist() == [splitmix_word(k, i) for k in keys for i in words]


def test_uniforms_are_the_top_53_bits_of_each_word():
    words = key_words(np.array([0, 3, 2 ** 64 - 1], np.uint64)[:, None], np.arange(40))
    u = uniforms(words)
    assert u.dtype == np.float64 and ((0 <= u) & (u < 1)).all()
    assert u.tolist() == [splitmix_uniforms(k, 0, 40).tolist() for k in (0, 3, 2 ** 64 - 1)]
    top = np.array([0, 1, 2 ** 64 - 1], np.uint64)
    assert uniforms(top).tolist() == [0.0, 0.0, 1 - 2.0 ** -53]


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
    tree = forest.trees[2]
    assert tree.root.row != -1
    tree.pool.c[tree.root.row, 0, -1] += 1
    report = forest_audit(forest)
    assert not report.ok
    assert any("c counts" in str(v) for v in report.violations)


def test_forest_audit_flags_a_leaked_or_shared_grid_row():
    _, forest = tiny_forest(seed=5)
    pool = forest.trees[0].pool
    pool.take(1)  # in use, but no node holds it
    report = forest_audit(forest)
    assert any("rows in use are not the rows nodes hold" in str(v) for v in report.violations)
    _, forest = tiny_forest(seed=5)
    forest.trees[1].root.row = forest.trees[0].root.row
    report = forest_audit(forest)
    assert any("tree 1" in str(v) and "grid row shared" in str(v) for v in report.violations)


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
    means = [float(np.mean(column)) for column in fractions.T.tolist()]
    assert forest.predict_many(rows).tolist() == means
    assert [forest.predict(x) for x in rows] == means
    assert forest.tagged_count() == 0 and forest_audit(forest).ok


def test_auc_pairs_frozen_values():
    assert auc_pairs([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0
    assert auc_pairs([1, 0], [0.5, 0.5]) == 0.5
    assert auc_pairs([1, 0, 1, 0], [0.1, 0.9, 0.8, 0.2]) == 0.25
    assert auc_pairs([0, 1], [0.9, 0.1]) == 0.0
    with pytest.raises(ValueError, match="each class"):
        auc_pairs([1, 1], [0.5, 0.6])