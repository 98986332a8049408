"""Tree construction, cached statistics, lazy updates, and audits."""

from __future__ import annotations

import numpy as np
import pytest

from dynforest.data import dataset_from_arrays
from dynforest.oracle import AttributeSlot, score_candidates, sortmerge_best_split
from dynforest.synth import make_dataset
from dynforest.tree import (TreeParams, _argmin_grid, audit_tree, build_tree,
                            prefix_counts, sample_thresholds)


def small_params(**kw):
    base = dict(max_depth=8, n_thresholds=6, min_split_size=10, criterion="gini")
    base.update(kw)
    return TreeParams(**base)


def line_dataset(n, label_rule=None):
    """One attribute holding 0..n-1; labels alternate unless told otherwise."""
    X = np.arange(float(n)).reshape(n, 1)
    if label_rule is None:
        y = np.arange(n) % 2
    else:
        y = np.array([label_rule(v) for v in range(n)], dtype=np.int64)
    return dataset_from_arrays(X, y)


# -- threshold sampling -------------------------------------------------------


def test_sample_thresholds_sorted_within_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = sorted(rng.normal(size=2))
        thr = sample_thresholds(a, b, 12, rng)
        assert len(thr) == 12
        assert (np.diff(thr) >= 0).all()
        assert thr.min() >= a and thr.max() <= b


def test_sample_thresholds_degenerate_range():
    rng = np.random.default_rng(0)
    thr = sample_thresholds(3.5, 3.5, 4, rng)
    assert thr.tolist() == [3.5, 3.5, 3.5, 3.5]


def test_sample_thresholds_deterministic():
    a = sample_thresholds(0.0, 1.0, 8, np.random.default_rng(42))
    b = sample_thresholds(0.0, 1.0, 8, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_thresholds_covers_range():
    # law of large numbers: empirical mean near the interval center
    thr = sample_thresholds(2.0, 6.0, 20000, np.random.default_rng(1))
    assert abs(thr.mean() - 4.0) < 0.05


# -- prefix counting ----------------------------------------------------------


def test_prefix_counts_frozen_case():
    values = np.array([1.0, 2.0, 2.0, 3.0])
    positive = np.array([True, False, True, False])
    thr = np.array([0.5, 2.0, 2.5, 3.0])
    b, c = prefix_counts(values, positive, thr)
    assert b.tolist() == [0, 3, 3, 4]  # "at or below" includes equality
    assert c.tolist() == [0, 2, 2, 2]


def test_prefix_counts_empty_inputs():
    b, c = prefix_counts(np.empty(0), np.empty(0, bool), np.array([1.0, 2.0]))
    assert b.tolist() == [0, 0] and c.tolist() == [0, 0]


def test_prefix_counts_matches_sortmerge_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        m = int(rng.integers(0, 80))
        values = np.round(rng.normal(size=m), 1)  # force duplicates
        positive = rng.random(m) < 0.5
        pool = np.concatenate([values, rng.normal(size=5)])  # hit exact ties
        thr = np.sort(rng.choice(pool, size=min(6, len(pool)), replace=False))
        b, c = prefix_counts(values, positive, thr)
        ob, oc = sortmerge_best_split(values, positive, thr)
        assert np.array_equal(b, ob) and np.array_equal(c, oc)


def test_score_candidates_recounts_from_scratch():
    ds = line_dataset(4, label_rule=lambda v: int(v >= 2))
    slot = AttributeSlot(0, 0.0, 3.0, np.array([2.5]), None, None, None)
    out = score_candidates(np.arange(4), ds, slot, "gini")
    assert out.b.tolist() == [3] and out.c.tolist() == [1]
    # left (3 samples, 1 pos) right (1, 1 pos): 3/4 * 4/9 = 1/3
    assert out.score[0] == pytest.approx(1 / 3)


def test_argmin_grid_takes_first_minimum():
    score = np.array([[3.0, 1.0, 1.0],
                      [1.0, 2.0, 2.0]])
    assert _argmin_grid(score) == (0, 1)  # row-major first occurrence


# -- construction -------------------------------------------------------------


def test_build_respects_stopping_rules():
    # pure labels: immediate slotless leaf
    ds = line_dataset(30, label_rule=lambda v: 1)
    tree = build_tree(ds, ds.live_ids(), small_params())
    assert tree.root.left is None and tree.root.slots is None
    # too few samples
    ds = line_dataset(9)
    tree = build_tree(ds, ds.live_ids(), small_params(min_split_size=10))
    assert tree.root.left is None
    # constant features: leaf that keeps its (degenerate) grid
    ds = dataset_from_arrays(np.ones((20, 3)), np.arange(20) % 2)
    tree = build_tree(ds, ds.live_ids(), small_params())
    assert tree.root.left is None and tree.root.slots is not None
    assert not np.isfinite(tree.root.slots.score).any()


def test_build_depth_limit():
    ds = make_dataset(400, d=6, seed=0)
    tree = build_tree(ds, ds.live_ids(), small_params(max_depth=3, min_split_size=2))
    depths = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        depths.append(node.depth)
        if node.left is not None:
            stack.extend((node.left, node.right))
    assert max(depths) <= 3


def preorder(root):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.left is not None:
            stack.extend((node.right, node.left))
    return out


def signature(tree):
    """Every node's structure, statistics and grid, in preorder."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append((node.depth, node.n, node.n_pos, node.best_k, node.best_i,
                    node.best_w, node.tagged, node.key if node.tagged else None,
                    tuple(node.ids)))
        if node.slots is not None:
            out.append(tuple(node.slots.attrs) + tuple(node.slots.thr.ravel())
                       + tuple(node.slots.b.ravel()) + tuple(node.slots.score.ravel()))
        if node.left is not None:
            stack.extend((node.left, node.right))
    return out


def test_build_is_deterministic_given_seed():
    ds = make_dataset(300, d=8, seed=2)
    a = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(9))
    b = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(9))
    assert signature(a) == signature(b)
    c = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(10))
    assert not np.array_equal(a.root.slots.thr, c.root.slots.thr)


def test_copies_stay_identical_through_deletes_and_flush():
    def grown():
        ds = make_dataset(500, d=8, seed=20)
        tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(21))
        for sid in range(0, 200, 3):
            tree.delete(sid)
        more = iter(range(200, 500, 3))
        while tree.n_tagged < 2:
            tree.delete(next(more))
        return tree

    a, b = grown(), grown()
    assert a.n_tagged > 1
    a.flush()
    b.flush()
    assert signature(a) == signature(b)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_level_builder_passes_audit_on_every_path():
    # build, rebuild_node, query-driven materialization and flush all grow
    # through the one level kernel; each must leave exact statistics
    for seed in range(4):
        criterion = ("gini", "entropy")[seed % 2]
        ds = make_dataset(600, d=7, seed=30 + seed)
        params = small_params(criterion=criterion, n_attrs=2 + seed % 3)
        tree = build_tree(ds, ds.live_ids(), params, np.random.default_rng(seed))
        assert audit_tree(tree).ok
        rng = np.random.default_rng(100 + seed)
        doomed = iter(rng.choice(ds.live_ids(), 300, replace=False).tolist())

        def delete_until_tagged():
            while tree.n_tagged == 0:
                tree.delete(next(doomed))

        delete_until_tagged()
        stack = [tree.root]
        while not stack[-1].tagged:
            node = stack.pop()
            if node.left is not None:
                stack.extend((node.left, node.right))
        tree.rebuild_node(stack[-1])
        report = audit_tree(tree)
        assert report.ok, "seed %d after rebuild_node: %s" % (seed, report.summary())
        delete_until_tagged()
        work = tree.telemetry.subtree_samples_rebuilt
        # a row of some tagged node's own samples reaches that node
        tagged = next(node for node in preorder(tree.root) if node.tagged and node.n)
        rows = list(make_dataset(40, d=7, seed=40 + seed).X[:40]) + [ds.X[tagged.ids[0]]]
        for row in rows:
            tree.query(row)
        assert tree.telemetry.subtree_samples_rebuilt > work
        report = audit_tree(tree)
        assert report.ok, "seed %d after queries: %s" % (seed, report.summary())
        delete_until_tagged()
        tree.flush()
        report = audit_tree(tree)
        assert report.ok and tree.n_tagged == 0, "seed %d after flush: %s" % (
            seed, report.summary())


def test_level_draws_are_uniform_over_seeds():
    """Attribute subsets are uniform p-subsets (chi-square) and thresholds
    are uniform over their slot's range (Kolmogorov-Smirnov), at the root
    and at depth 1, where the frontier holds two nodes.

    2000 fixed seeds make the outcome deterministic; under the null each
    p-value would fall below its 0.001 floor with probability 0.001.
    """
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 6))
    X[:, 3] = 1.5  # a constant attribute: its slots are degenerate and draw nothing
    ds = dataset_from_arrays(X, rng.integers(0, 2, size=80))
    params = TreeParams(max_depth=2, n_thresholds=5, n_attrs=2, min_split_size=2)
    subsets = {}
    root_counts = np.zeros(15)
    unit = []
    for seed in range(2000):
        tree = build_tree(ds, ds.live_ids(), params, np.random.default_rng(seed))
        root = tree.root
        for node in (root, root.left, root.right):
            if node is None or node.slots is None:
                continue
            blk = node.slots
            if node is root:
                key = tuple(blk.attrs)
                root_counts[subsets.setdefault(key, len(subsets))] += 1
            live = blk.amin < blk.amax
            unit.append(((blk.thr[live] - blk.amin[live, None])
                         / (blk.amax[live] - blk.amin[live])[:, None]).ravel())
    assert len(subsets) == 15  # C(6, 2)
    assert stats.chisquare(root_counts).pvalue > 1e-3
    unit = np.concatenate(unit)
    assert len(unit) > 20000
    assert stats.kstest(unit, "uniform").pvalue > 1e-3


def test_query_grown_draws_are_uniform_over_seeds():
    """Nodes grown by queries read their own keyed streams: their attribute
    subsets are uniform p-subsets (chi-square) and their thresholds are
    uniform over their slot's range (Kolmogorov-Smirnov), at the tagged
    root and at the two children one batch query grows below it.

    2000 fixed seeds make the outcome deterministic; under the null each
    p-value would fall below its 0.001 floor with probability 0.001.
    """
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1)
    X = rng.normal(size=(80, 6))
    X[:, 3] = 1.5  # a constant attribute: its slots are degenerate
    ds = dataset_from_arrays(X, rng.integers(0, 2, size=80))
    params = TreeParams(max_depth=2, n_thresholds=5, n_attrs=2, min_split_size=2)
    rows = X[:20]
    subsets = {}
    root_counts = np.zeros(15)
    unit = []
    for seed in range(2000):
        tree = build_tree(ds, ds.live_ids(), params, np.random.default_rng(seed))
        tree._tag(tree.root, "tags_moved")
        tree.query_many(rows)
        root = tree.root
        assert tree.telemetry.nodes_materialized >= 1
        for node in (root, root.left, root.right):
            if node is None or node.slots is None or node.tagged:
                continue
            blk = node.slots
            if node is root:
                key = tuple(blk.attrs)
                root_counts[subsets.setdefault(key, len(subsets))] += 1
            live = blk.amin < blk.amax
            unit.append(((blk.thr[live] - blk.amin[live, None])
                         / (blk.amax[live] - blk.amin[live])[:, None]).ravel())
    assert len(subsets) == 15  # C(6, 2)
    assert stats.chisquare(root_counts).pvalue > 1e-3
    unit = np.concatenate(unit)
    assert len(unit) > 20000
    assert stats.kstest(unit, "uniform").pvalue > 1e-3


def test_fresh_build_passes_audit():
    for seed in range(3):
        ds = make_dataset(500, d=10, seed=seed)
        tree = build_tree(ds, ds.live_ids(), small_params(),
                          np.random.default_rng(seed))
        report = audit_tree(tree)
        assert report.ok, report.summary()


def test_build_on_empty_and_singleton_id_sets():
    ds = make_dataset(50, d=6, seed=1)
    tree = build_tree(ds, np.empty(0, np.int64), small_params())
    assert tree.root.n == 0
    assert tree.query(ds.X[0]) == (0, 0)
    tree = build_tree(ds, np.array([3]), small_params())
    assert tree.root.n == 1 and tree.root.left is None


# -- deletions ----------------------------------------------------------------


def test_delete_updates_path_statistics():
    ds = make_dataset(400, d=6, seed=3)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(1))
    before = tree.telemetry.nodes_updated
    tree.delete(7)
    touched = tree.telemetry.nodes_updated - before
    assert 1 <= touched <= small_params().max_depth + 1
    assert audit_tree(tree).ok
    with pytest.raises(ValueError, match="not present"):
        tree.delete(7)  # already gone from the tree


def test_delete_below_min_split_tags_the_node():
    ds = line_dataset(10)  # exactly min_split_size samples: root still splits
    tree = build_tree(ds, ds.live_ids(), small_params(min_split_size=10),
                      np.random.default_rng(0))
    assert tree.root.left is not None
    tagged = tree.delete(3)
    assert tagged is tree.root and tree.root.tagged
    assert tree.root.left is None and tree.root.best_k == -1
    assert audit_tree(tree).ok


def test_delete_boundary_value_resamples_thresholds():
    ds = line_dataset(30)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(2))
    assert tree.telemetry.attrs_resampled == 0
    tree.delete(29)  # unique maximum of the only attribute: root range shrinks
    assert tree.telemetry.attrs_resampled >= 1
    assert tree.telemetry.range_resample_samples >= 29
    assert audit_tree(tree).ok


def test_delete_at_tagged_node_only_patches_stats():
    ds = dataset_from_arrays(np.full((12, 2), 5.0), np.arange(12) % 2)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(0))
    extra = ds.add([9.0, 9.0], 1)  # widens a degenerate slot: tags the leaf
    assert tree.add(extra) is tree.root and tree.root.tagged
    n_before = tree.root.n
    assert tree.delete(0) is None  # no new tag; stats still maintained
    assert tree.root.n == n_before - 1
    assert audit_tree(tree).ok


def test_delete_everything_leaves_consistent_empty_tree():
    ds = make_dataset(60, d=5, seed=4)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(3))
    for sid in ds.live_ids():
        tree.delete(int(sid))
    assert tree.root.n == 0 and tree.root.n_pos == 0
    assert audit_tree(tree).ok
    assert tree.query(ds.X[0])[0] == 0


def test_delete_group_matches_individual_deletes_for_singletons():
    ds1 = make_dataset(300, d=6, seed=5)
    ds2 = make_dataset(300, d=6, seed=5)
    t1 = build_tree(ds1, ds1.live_ids(), small_params(), np.random.default_rng(4))
    t2 = build_tree(ds2, ds2.live_ids(), small_params(), np.random.default_rng(4))
    for sid in (5, 17, 40, 99):
        t1.delete(sid)
        t2.delete_group(np.array([sid]))
    # identical structure, statistics, and rng state afterwards
    assert t1.rng.bit_generator.state == t2.rng.bit_generator.state
    pairs = [(t1.root, t2.root)]
    while pairs:
        a, b = pairs.pop()
        assert (a.n, a.n_pos, a.best_k, a.best_i, a.best_w, a.tagged) == \
               (b.n, b.n_pos, b.best_k, b.best_i, b.best_w, b.tagged)
        assert np.array_equal(a.ids, b.ids)
        if a.slots is not None:
            assert np.array_equal(a.slots.thr, b.slots.thr)
            assert np.array_equal(a.slots.b, b.slots.b)
        assert (a.left is None) == (b.left is None)
        if a.left is not None:
            pairs.extend(((a.left, b.left), (a.right, b.right)))


def test_delete_group_bulk_stays_consistent():
    ds = make_dataset(800, d=8, seed=6)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(5))
    rng = np.random.default_rng(0)
    group = rng.choice(ds.live_ids(), 200, replace=False).astype(np.int64)
    tree.delete_group(group)
    assert tree.root.n == 600
    assert not np.isin(tree.root.ids, group).any()
    assert audit_tree(tree).ok


def test_delete_group_returns_the_nodes_it_tagged():
    ds = make_dataset(800, d=8, seed=6)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(5))
    group = np.random.default_rng(1).choice(ds.live_ids(), 300, replace=False)
    tagged = tree.delete_group(group)
    assert tagged and all(node.tagged for node in tagged)
    assert len({id(node) for node in tagged}) == len(tagged) == tree.n_tagged
    assert tree.delete_group([]) == []
    with pytest.raises(ValueError, match="1 of 2 ids not present"):
        tree.delete_group([int(group[0]), int(tree.root.ids[0])])
    for node in tagged:
        tree.rebuild_node(node)
    assert tree.n_tagged == 0 and audit_tree(tree).ok


def test_rebuild_node_refuses_a_node_cut_out_by_a_later_tag():
    ds = make_dataset(400, d=6, seed=3)
    tree = build_tree(ds, ds.live_ids(), TreeParams(max_depth=8, n_thresholds=5),
                      np.random.default_rng(0))
    order = iter(np.random.default_rng(0).permutation(400).tolist())

    def tagged_below_root():
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.tagged and node.depth >= 2:
                return node
            if node.left is not None:
                stack.extend((node.left, node.right))
        return None

    orphan = None
    while orphan is None:
        tree.delete(next(order))
        orphan = tagged_below_root()
    while not tree.root.tagged:
        tree.delete(next(order))
    # the root's tag discarded the orphan's subtree and settled its tag
    assert not orphan.tagged and tree.n_tagged == 1
    with pytest.raises(ValueError, match="not tagged"):
        tree.rebuild_node(orphan)
    assert tree.n_tagged == 1 and audit_tree(tree).ok
    tree.rebuild_node(tree.root)
    assert tree.n_tagged == 0 and audit_tree(tree).ok


# -- additions ----------------------------------------------------------------


def test_add_routes_and_patches_statistics():
    ds = make_dataset(400, d=6, seed=7)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(6))
    sid = ds.add(ds.X[0] + 0.001, 1)
    tree.add(sid)
    assert tree.root.n == 401
    assert audit_tree(tree).ok
    with pytest.raises(ValueError, match="already present"):
        tree.add(sid)


def test_add_outside_range_resamples_internal_thresholds():
    ds = line_dataset(30)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(7))
    sid = ds.add([100.0], 1)
    tree.add(sid)
    assert tree.telemetry.attrs_resampled >= 1  # counted before any tagging
    assert audit_tree(tree).ok


def test_add_turns_pure_leaf_splittable():
    ds = line_dataset(12, label_rule=lambda v: 1)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(8))
    assert tree.root.left is None and tree.root.slots is None  # pure leaf
    same = ds.add([50.0], 1)
    assert tree.add(same) is None  # still pure: nothing to revisit
    other = ds.add([60.0], 0)
    tagged = tree.add(other)
    assert tagged is tree.root and tree.root.tagged
    assert audit_tree(tree).ok


def test_add_grows_small_leaf_past_min_split():
    ds = line_dataset(5)
    tree = build_tree(ds, ds.live_ids(), small_params(min_split_size=10),
                      np.random.default_rng(9))
    for v in range(5, 9):  # 6th..9th samples: still under the limit
        assert tree.add(ds.add([float(v)], v % 2)) is None
    tenth = ds.add([9.0], 1)
    assert tree.add(tenth) is tree.root
    assert tree.root.tagged


def test_add_widening_value_tags_degenerate_leaf():
    ds = dataset_from_arrays(np.full((14, 2), 7.0), np.arange(14) % 2)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(10))
    assert tree.root.left is None and tree.root.slots is not None
    inside = ds.add([7.0, 7.0], 0)
    assert tree.add(inside) is None  # still degenerate on every slot
    outside = ds.add([7.0, 8.5], 1)
    assert tree.add(outside) is tree.root
    assert audit_tree(tree).ok


# -- queries and materialization ----------------------------------------------


def test_query_on_clean_tree_is_read_only():
    ds = make_dataset(300, d=6, seed=8)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(11))
    before = tree.telemetry.as_dict()
    n, pos = tree.query(ds.X[5])
    assert 0 <= pos <= n
    assert tree.telemetry.as_dict() == before
    assert tree.n_tagged == 0


def test_query_materializes_one_level_and_pushes_tags_down():
    ds = dataset_from_arrays(np.full((30, 1), 2.0), np.arange(30) % 2)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(12))
    sid = ds.add([5.0], 1)
    assert tree.add(sid) is tree.root  # widened degenerate leaf
    assert tree.n_tagged == 1
    n, pos = tree.query(np.array([5.0]))
    # root rebuilt one level: both children exist and are tagged, except
    # the queried side which materialized on the way down
    assert not tree.root.tagged and tree.root.left is not None
    assert tree.n_tagged == 1  # two children tagged, one untagged by the walk
    assert tree.telemetry.subtree_samples_rebuilt > 0
    work = tree.telemetry.as_dict()
    assert tree.query(np.array([5.0])) == (n, pos)  # repeat: no further work
    assert tree.telemetry.as_dict() == work
    assert audit_tree(tree).ok


def test_query_many_agrees_with_scalar_queries():
    ds = make_dataset(500, d=8, seed=9)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(13))
    X = make_dataset(80, d=8, seed=10).X[:80]
    n_vec, pos_vec = tree.query_many(X)
    singles = [tree.query(X[r]) for r in range(len(X))]
    assert n_vec.tolist() == [s[0] for s in singles]
    assert pos_vec.tolist() == [s[1] for s in singles]


def test_query_many_while_tagged_matches_sequential_semantics():
    def build_pair():
        ds = make_dataset(400, d=6, seed=11)
        tree = build_tree(ds, ds.live_ids(), small_params(),
                          np.random.default_rng(14))
        for sid in range(0, 120, 3):
            tree.delete(sid)
        return ds, tree

    ds1, t1 = build_pair()
    ds2, t2 = build_pair()
    X = make_dataset(60, d=6, seed=12).X[:60]
    n1, p1 = t1.query_many(X)
    rows = [t2.query(X[r]) for r in range(len(X))]
    assert n1.tolist() == [r[0] for r in rows]
    assert p1.tolist() == [r[1] for r in rows]


def test_query_many_is_independent_of_row_order():
    # a node grown by a query draws from its own key, so the order in
    # which rows reach tagged nodes changes neither the tree nor the counts
    def tagged_tree():
        ds = make_dataset(400, d=6, seed=11)
        tree = build_tree(ds, ds.live_ids(), small_params(),
                          np.random.default_rng(14))
        for sid in range(0, 120, 3):
            tree.delete(sid)
        assert tree.n_tagged > 1
        return tree

    X = make_dataset(60, d=6, seed=12).X[:60]
    perm = np.random.default_rng(3).permutation(len(X))
    forward, permuted, single = tagged_tree(), tagged_tree(), tagged_tree()
    n_f, p_f = forward.query_many(X)
    n_p, p_p = permuted.query_many(X[perm])
    rows = {r: single.query(X[r]) for r in perm[::-1].tolist()}
    assert n_p.tolist() == n_f[perm].tolist() and p_p.tolist() == p_f[perm].tolist()
    assert n_f.tolist() == [rows[r][0] for r in range(len(X))]
    assert p_f.tolist() == [rows[r][1] for r in range(len(X))]
    assert signature(permuted) == signature(forward) == signature(single)
    assert forward.telemetry.nodes_materialized > 0
    assert audit_tree(forward).ok


def test_tag_counters_count_each_tag_once_and_repeat_exactly():
    def run():
        ds = make_dataset(500, d=6, seed=21)
        tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(22))
        rng = np.random.default_rng(23)
        probe = make_dataset(30, d=6, seed=24).X[:30]
        events = 0
        for sid in rng.choice(ds.live_ids(), 150, replace=False).tolist():
            events += tree.delete(sid) is not None
            ds.tombstone(sid)
            new = ds.add(probe[sid % 30] * 1.3, sid % 2)  # some values widen ranges
            events += tree.add(new) is not None
            tree.query(probe[sid % 30])
        return events, tree.telemetry.as_dict()

    first = run()
    assert run() == first
    events, counts = first
    causes = counts["tags_moved"] + counts["tags_stopped"] + counts["tags_widened"]
    assert causes == events > 0
    assert counts["tags_moved"] > 0 and counts["tags_stopped"] > 0
    assert counts["nodes_materialized"] > 0


# -- flush ----------------------------------------------------------------------


def test_flush_clears_tags_and_is_idempotent():
    ds = make_dataset(600, d=8, seed=13)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(15))
    rng = np.random.default_rng(1)
    for sid in rng.choice(ds.live_ids(), 150, replace=False):
        tree.delete(int(sid))
    tree.flush()
    assert tree.n_tagged == 0
    assert audit_tree(tree).ok
    work = tree.telemetry.as_dict()
    tree.flush()
    assert tree.telemetry.as_dict() == work  # nothing left to rebuild


def test_flush_preserves_covered_ids():
    ds = make_dataset(300, d=6, seed=14)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(16))
    for sid in range(0, 100, 2):
        tree.delete(sid)
    survivors = np.sort(tree.root.ids.copy())
    tree.flush()
    assert np.array_equal(np.sort(tree.root.ids), survivors)


# -- audit teeth ----------------------------------------------------------------


def test_audit_detects_corrupted_counts():
    ds = make_dataset(300, d=6, seed=15)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(17))
    node = tree.root
    node.slots.b[0, 0] += 1
    report = audit_tree(tree)
    assert not report.ok
    assert any("b counts" in str(v) for v in report.violations)


def test_audit_detects_stale_best_split():
    ds = make_dataset(300, d=6, seed=16)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(18))
    tree.root.best_w += 1e-6
    report = audit_tree(tree)
    assert not report.ok


def test_audit_detects_wrong_partition():
    ds = make_dataset(300, d=6, seed=17)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(19))
    left, right = tree.root.left, tree.root.right
    left.ids, right.ids = right.ids, left.ids
    report = audit_tree(tree)
    assert not report.ok


# -- interleaved fuzz ------------------------------------------------------------


def test_interleaved_operations_fuzz_stays_audit_clean():
    ds = make_dataset(700, d=8, seed=18)
    tree = build_tree(ds, ds.live_ids(), small_params(), np.random.default_rng(20))
    rng = np.random.default_rng(99)
    present = set(int(i) for i in ds.live_ids())
    probe = make_dataset(40, d=8, seed=19).X[:40]
    for step in range(400):
        r = rng.random()
        if r < 0.35 and len(present) > 5:
            sid = int(rng.choice(sorted(present)))
            tree.delete(sid)
            ds.tombstone(sid)
            present.discard(sid)
        elif r < 0.65:
            base = probe[int(rng.integers(len(probe)))]
            sid = ds.add(base + rng.normal(scale=0.01, size=8), int(rng.integers(2)))
            tree.add(sid)
            present.add(sid)
        else:
            tree.query(probe[int(rng.integers(len(probe)))])
        if step % 50 == 49:
            report = audit_tree(tree)
            assert report.ok, "step %d: %s" % (step, report.summary())
    tree.flush()
    assert audit_tree(tree).ok
