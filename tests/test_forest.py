"""Forest-level behavior: subsampling, aggregation, updates, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from dynforest.forest import Forest, ForestParams, distribute, subsample_count
from dynforest.oracle import forest_audit, occupancy_check
from dynforest.snapshot import save
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams


def quick_params(**kw):
    tree_kw = {}
    for key in ("max_depth", "n_thresholds", "n_attrs", "min_split_size", "criterion"):
        if key in kw:
            tree_kw[key] = kw.pop(key)
    base = dict(n_trees=12, occupancy=0.5, seed=3,
                tree=TreeParams(max_depth=8, n_thresholds=5, min_split_size=10,
                                **tree_kw))
    base.update(kw)
    return ForestParams(**base)


# -- trees-per-sample ---------------------------------------------------------


def test_subsample_count_frozen_cases():
    assert subsample_count(1.0, 100) == 100
    assert subsample_count(0.1, 100) == 10
    assert subsample_count(0.25, 8) == 2
    assert subsample_count(0.3, 10) == 3  # 0.3*10 must not round up to 4
    assert subsample_count(0.35, 10) == 4
    assert subsample_count(0.01, 10) == 1  # clamped up to one tree
    assert subsample_count(1.0, 1) == 1


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001, 2.0])
def test_subsample_count_rejects_bad_occupancy(bad):
    with pytest.raises(ValueError, match="occupancy"):
        subsample_count(bad, 10)


def test_distribute_invariants():
    rng = np.random.default_rng(7)
    ids = np.arange(1000, dtype=np.int64)
    per_tree, assign = distribute(ids, n_trees=20, k=7, rng=rng)
    assert assign.shape == (1000, 7)
    for row in assign:
        assert len(set(row.tolist())) == 7
        assert (np.diff(row) > 0).all()  # sorted, distinct
        assert row.min() >= 0 and row.max() < 20
    assert sum(len(p) for p in per_tree) == 7000
    # per_tree lists agree with the assignment matrix
    back = [set() for _ in range(20)]
    for i, row in zip(ids, assign):
        for t in row:
            back[t].add(int(i))
    for t in range(20):
        assert set(int(i) for i in per_tree[t]) == back[t]
        assert (np.diff(per_tree[t]) > 0).all() if len(per_tree[t]) > 1 else True


def test_distribute_spreads_load_roughly_evenly():
    rng = np.random.default_rng(0)
    per_tree, _ = distribute(np.arange(5000), n_trees=10, k=2, rng=rng)
    loads = np.array([len(p) for p in per_tree])
    assert loads.sum() == 10000
    assert loads.min() > 700 and loads.max() < 1300  # ~1000 each


# -- training -----------------------------------------------------------------


def test_train_satisfies_occupancy_and_audits():
    ds = make_dataset(600, d=8, seed=0)
    forest = Forest.train(ds, quick_params())
    assert forest.k == 6  # 0.5 * 12
    report = forest_audit(forest)
    assert report.ok, report.summary()


def test_train_is_deterministic_in_seed():
    X = make_dataset(200, d=8, seed=5).X[:200]
    a = Forest.train(make_dataset(600, d=8, seed=1), quick_params(seed=11))
    b = Forest.train(make_dataset(600, d=8, seed=1), quick_params(seed=11))
    c = Forest.train(make_dataset(600, d=8, seed=1), quick_params(seed=12))
    assert np.array_equal(a.predict_many(X), b.predict_many(X))
    assert np.array_equal(a.assignment, b.assignment)
    assert not np.array_equal(a.predict_many(X), c.predict_many(X))


# -- prediction ---------------------------------------------------------------


def test_predict_is_mean_of_leaf_fractions():
    ds = make_dataset(400, d=6, seed=3)
    forest = Forest.train(ds, quick_params())
    x = ds.X[17]
    fracs = []
    for tree in forest.trees:
        n, pos = tree.query(x)
        fracs.append(pos / n if n else forest.prior)
    assert forest.predict(x) == pytest.approx(np.mean(fracs))


def test_predict_many_matches_scalar_predict():
    ds = make_dataset(400, d=6, seed=4)
    forest = Forest.train(ds, quick_params())
    X = make_dataset(50, d=6, seed=7).X[:50]
    vec = forest.predict_many(X)
    assert vec == pytest.approx([forest.predict(X[r]) for r in range(50)])


def test_predict_takes_a_list_row_like_an_array_row():
    ds = make_dataset(400, d=6, seed=4)
    forest = Forest.train(ds, quick_params())
    for sid in range(0, 60, 2):
        forest.delete(sid)
    twin = Forest.train(make_dataset(400, d=6, seed=4), quick_params())
    for sid in range(0, 60, 2):
        twin.delete(sid)
    assert forest.tagged_count() > 0
    X = make_dataset(40, d=6, seed=7).X[:40]
    for x in X:
        assert forest.predict(x) == twin.predict(x.tolist())


def test_predict_validates_shapes():
    forest = Forest.train(make_dataset(200, d=6, seed=5), quick_params())
    with pytest.raises(ValueError, match="features"):
        forest.predict(np.zeros(5))
    with pytest.raises(ValueError, match="matrix"):
        forest.predict_many(np.zeros((4, 9)))


def test_prior_tracks_live_samples_and_empty_forest_predicts_half():
    ds = make_dataset(120, d=5, seed=6)
    forest = Forest.train(ds, quick_params(n_trees=6, occupancy=1.0))
    assert forest.prior == pytest.approx(ds.n_pos / ds.n_live)
    for sample_id in list(ds.live_ids()):
        forest.delete(int(sample_id))
    assert ds.n_live == 0
    assert forest.prior == 0.5
    assert forest.predict(np.zeros(5)) == 0.5


# -- additions ----------------------------------------------------------------


def test_add_joins_exactly_k_trees():
    ds = make_dataset(300, d=6, seed=7)
    forest = Forest.train(ds, quick_params())
    new_id = forest.add(ds.X[0] + 0.01, 1)
    row = forest.assignment[new_id].tolist()
    assert len(row) == forest.k and len(set(row)) == forest.k
    for t, tree in enumerate(forest.trees):
        hit = bool((tree.root.ids == new_id).any())
        assert hit == (t in row)
    assert occupancy_check(forest).ok
    assert forest_audit(forest).ok


def test_add_is_deterministic_given_state():
    def run():
        ds = make_dataset(300, d=6, seed=8)
        forest = Forest.train(ds, quick_params(seed=9))
        out = []
        for j in range(20):
            sid = forest.add(ds.X[j] * 1.001, j % 2)
            out.append((sid, forest.assignment[sid].tolist()))
        return out, forest

    out1, f1 = run()
    out2, f2 = run()
    assert out1 == out2
    X = make_dataset(40, d=6, seed=9).X[:40]
    assert np.array_equal(f1.predict_many(X), f2.predict_many(X))


def test_add_rejects_non_finite_features_before_any_tree():
    ds = make_dataset(300, d=6, seed=16)
    forest = Forest.train(ds, quick_params())
    n_live, assign_before = ds.n_live, forest.assignment.copy()
    for bad in (np.inf, -np.inf, np.nan):
        row = ds.X[0].copy()
        row[2] = bad
        with pytest.raises(ValueError, match="finite"):
            forest.add(row, 1)
    assert ds.n_live == n_live
    assert np.array_equal(forest.assignment, assign_before)
    report = forest_audit(forest)
    assert report.ok, report.summary()


def test_eager_mode_add_and_delete_leave_no_tags():
    ds = make_dataset(400, d=6, seed=10)
    forest = Forest.train(ds, quick_params(), lazy=False)
    rng = np.random.default_rng(2)
    for j in range(60):
        if j % 2:
            forest.add(ds.X[int(rng.integers(200))] + 0.005, int(rng.integers(2)))
        else:
            forest.delete(int(rng.choice(ds.live_ids())))
        assert forest.tagged_count() == 0
    assert forest_audit(forest).ok


# -- deletions ----------------------------------------------------------------


def test_delete_removes_sample_everywhere():
    ds = make_dataset(300, d=6, seed=11)
    forest = Forest.train(ds, quick_params())
    target = 42
    forest.delete(target)
    assert not ds.is_live(target)
    assert (forest.assignment[target] == -1).all()
    for tree in forest.trees:
        assert not (tree.root.ids == target).any()
    assert occupancy_check(forest).ok
    with pytest.raises(KeyError, match="not live"):
        forest.delete(target)
    with pytest.raises(KeyError, match="not live"):
        forest.delete(10 ** 9)


def test_lazy_deletes_accumulate_tags_and_flush_clears_them():
    ds = make_dataset(500, d=6, seed=12)
    forest = Forest.train(ds, quick_params())
    rng = np.random.default_rng(3)
    for sample_id in rng.choice(ds.live_ids(), 150, replace=False):
        forest.delete(int(sample_id))
    assert forest.tagged_count() > 0  # lazy mode defers rebuilds
    forest.flush()
    assert forest.tagged_count() == 0
    assert forest_audit(forest).ok


# -- batched unlearning --------------------------------------------------------


def test_unlearn_batch_removes_every_id():
    ds = make_dataset(500, d=6, seed=13)
    forest = Forest.train(ds, quick_params())
    batch = [3, 77, 240, 399, 401]
    forest.unlearn_batch(batch)
    for sample_id in batch:
        assert not ds.is_live(sample_id)
        assert (forest.assignment[sample_id] == -1).all()
    assert occupancy_check(forest).ok
    assert forest_audit(forest).ok
    forest.unlearn_batch([], finalize=True)  # empty batch is a no-op
    assert forest.tagged_count() == 0


def test_unlearn_batch_rejects_bad_ids_atomically():
    ds = make_dataset(300, d=6, seed=14)
    forest = Forest.train(ds, quick_params())
    forest.delete(50)
    n_live = ds.n_live
    assign_before = forest.assignment.copy()
    tele_before = forest.telemetry().as_dict()
    with pytest.raises(KeyError, match="not live"):
        forest.unlearn_batch([10, 20, 50, 30])  # 50 is already gone
    with pytest.raises(KeyError, match="repeated"):
        forest.unlearn_batch([10, 20, 10])
    # nothing was touched by either rejected batch
    assert ds.n_live == n_live
    assert np.array_equal(forest.assignment, assign_before)
    assert forest.telemetry().as_dict() == tele_before


def test_singleton_batch_is_bit_identical_to_delete(tmp_path):
    def build():
        ds = make_dataset(400, d=6, seed=15)
        return Forest.train(ds, quick_params(seed=21))

    f1, f2 = build(), build()
    f1.delete(123)
    f2.unlearn_batch([123])
    save(f1, tmp_path / "a.bin")
    save(f2, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_unlearn_batch_finalize_flushes_tags():
    ds = make_dataset(500, d=6, seed=16)
    forest = Forest.train(ds, quick_params())
    rng = np.random.default_rng(4)
    batch = [int(i) for i in rng.choice(ds.live_ids(), 120, replace=False)]
    forest.unlearn_batch(batch, finalize=True)
    assert forest.tagged_count() == 0
    assert forest_audit(forest).ok


def test_unlearn_batch_eager_rebuilds_inline():
    ds = make_dataset(400, d=6, seed=17)
    forest = Forest.train(ds, quick_params(), lazy=False)
    rng = np.random.default_rng(5)
    batch = [int(i) for i in rng.choice(ds.live_ids(), 80, replace=False)]
    forest.unlearn_batch(batch)
    assert forest.tagged_count() == 0
    assert forest_audit(forest).ok


# -- bookkeeping ----------------------------------------------------------------


def test_telemetry_sums_per_tree_counters_and_resets():
    ds = make_dataset(300, d=6, seed=18)
    forest = Forest.train(ds, quick_params())
    forest.delete(10)
    forest.add(ds.X[0] + 0.02, 1)
    total = forest.telemetry()
    assert total.nodes_updated == sum(t.telemetry.nodes_updated for t in forest.trees)
    assert total.nodes_updated > 0
    forest.reset_telemetry()
    assert forest.telemetry().as_dict() == {
        "nodes_updated": 0, "subtree_samples_rebuilt": 0,
        "range_resample_samples": 0, "attrs_resampled": 0,
        "nodes_materialized": 0, "tags_moved": 0, "tags_stopped": 0,
        "tags_widened": 0,
    }


def test_forest_params_validation():
    ds = make_dataset(50, d=6, seed=19)
    with pytest.raises(ValueError, match="n_trees"):
        Forest.train(ds, ForestParams(n_trees=0))
    with pytest.raises(ValueError, match="occupancy"):
        Forest.train(ds, ForestParams(n_trees=5, occupancy=0.0))
    with pytest.raises(ValueError, match="n_attrs"):
        Forest.train(ds, ForestParams(n_trees=5, tree=TreeParams(n_attrs=11)))


# -- end-to-end consistency ------------------------------------------------------


def test_mixed_operations_keep_forest_audit_clean():
    ds = make_dataset(600, d=8, seed=20)
    forest = Forest.train(ds, quick_params(n_trees=8, occupancy=0.4, seed=30))
    rng = np.random.default_rng(6)
    probe = make_dataset(30, d=8, seed=21).X[:30]
    for step in range(200):
        r = rng.random()
        if r < 0.3 and ds.n_live > 20:
            forest.delete(int(rng.choice(ds.live_ids())))
        elif r < 0.55:
            forest.add(probe[int(rng.integers(30))] + rng.normal(scale=0.01, size=8),
                       int(rng.integers(2)))
        elif r < 0.65 and ds.n_live > 40:
            batch = [int(i) for i in rng.choice(ds.live_ids(), 10, replace=False)]
            forest.unlearn_batch(batch)
        else:
            forest.predict(probe[int(rng.integers(30))])
        if step % 50 == 49:
            report = forest_audit(forest)
            assert report.ok, "step %d: %s" % (step, report.summary())
    forest.flush()
    assert forest_audit(forest).ok