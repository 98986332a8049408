"""Forest-level behavior: subsampling, aggregation, updates, telemetry."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dynforest import tree as tree_mod
from dynforest.forest import Forest, ForestParams, distribute, subsample_count
from dynforest.oracle import forest_audit, occupancy_check, splitmix_word
from dynforest.snapshot import load, save
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams, materialize, tree_keys
from test_tree import signature


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
    ids = np.arange(1000, dtype=np.int64)
    per_tree, assign = distribute(ids, tree_keys(7, 20), k=7)
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
    per_tree, _ = distribute(np.arange(5000), tree_keys(0, 10), k=2)
    loads = np.array([len(p) for p in per_tree])
    assert loads.sum() == 10000
    assert loads.min() > 700 and loads.max() < 1300  # ~1000 each


def keyed_trees(seed, n_trees, k, sample_id):
    """The k trees of a sample id, by oracle.splitmix_word: those whose
    word 3i + 1 of tree t's key (word t of the seed) are the k smallest."""
    words = [splitmix_word(splitmix_word(seed, t), 3 * sample_id + 1) for t in range(n_trees)]
    return sorted(sorted(range(n_trees), key=words.__getitem__)[:k])


def test_each_id_lies_in_its_keyed_k_smallest_trees():
    """Training and Forest.add put sample id i in the k trees whose word
    3i + 1 is smallest: a function of the seed and the id alone."""
    params = quick_params(n_trees=9, occupancy=0.4, seed=2**64 - 5)
    ds = make_dataset(300, d=6, seed=4)
    forest = Forest.train(ds, params)
    for sid in ds.live_ids().tolist():
        assert forest.assignment[sid].tolist() == keyed_trees(params.seed, 9, forest.k, sid)
    probe = make_dataset(20, d=6, seed=41).X
    forest.delete(7)
    for x in probe:
        sid = forest.add(x, 1)
        assert forest.assignment[sid].tolist() == keyed_trees(params.seed, 9, forest.k, sid)
    assert occupancy_check(forest).ok


# -- training -----------------------------------------------------------------


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5, np.int64(3), "3"])
def test_seed_must_be_an_integer_in_64_bits(seed):
    ds = make_dataset(60, d=5, seed=0)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        Forest.train(ds, quick_params(seed=seed))


def test_seeds_at_the_ends_of_64_bits_train():
    ds = make_dataset(60, d=5, seed=0)
    low, high = (Forest.train(ds, quick_params(seed=seed)) for seed in (0, 2**64 - 1))
    assert [tree.key for tree in high.trees] == tree_keys(2**64 - 1, len(high.trees))
    assert forest_audit(low).ok and forest_audit(high).ok


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


@pytest.mark.parametrize("pending", [False, True])
def test_predict_many_gives_each_row_the_bits_of_predict(tmp_path, pending):
    forest = Forest.train(make_dataset(400, d=6, seed=4), quick_params(n_trees=30))
    if pending:
        forest.unlearn_batch(list(range(0, 80, 2)))
        assert forest.tagged_count() > 0
    save(forest, tmp_path / "model.bin")
    twin = load(tmp_path / "model.bin")
    X = make_dataset(200, d=6, seed=7).X[:200]
    together = forest.predict_many(X).tolist()
    assert [twin.predict(x) for x in X] == together


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows_before_touching_a_tree(tmp_path, bad):
    ds = make_dataset(400, d=6, seed=4)
    forest = Forest.train(ds, quick_params())
    for sid in range(0, 60, 2):
        forest.delete(sid)
    assert forest.tagged_count() > 0
    save(forest, tmp_path / "before.bin")
    x = ds.X[3].copy()
    x[2] = bad
    with pytest.raises(ValueError, match="finite, row 0 "):
        forest.predict(x)
    X = make_dataset(6, d=6, seed=7).X[:6].copy()
    X[4, 0] = bad
    X[5, 1] = bad
    with pytest.raises(ValueError, match="finite, row 4 "):
        forest.predict_many(X)
    save(forest, tmp_path / "after.bin")
    assert (tmp_path / "before.bin").read_bytes() == (tmp_path / "after.bin").read_bytes()


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


@pytest.mark.parametrize("bad", [3.7, 3.0, True, np.float64(4.9), np.True_, "3"],
                         ids=["float", "integral-float", "bool", "np-float", "np-bool", "str"])
def test_non_integer_ids_are_rejected_before_anything_changes(tmp_path, bad):
    forest = Forest.train(make_dataset(300, d=6, seed=12), quick_params(seed=12))
    save(forest, tmp_path / "before.bin")
    before = (tmp_path / "before.bin").read_bytes()
    for call, arg in ((forest.delete, bad), (forest.unlearn_batch, [bad]),
                      (forest.unlearn_batch, [10, 20, bad, 30])):
        with pytest.raises(TypeError, match="must be an integer"):
            call(arg)
        save(forest, tmp_path / "after.bin")
        assert (tmp_path / "after.bin").read_bytes() == before
    # Python and numpy integers still name samples
    forest.delete(np.int64(3))
    forest.unlearn_batch([4, np.int32(5), np.uint16(6)])
    assert not any(forest.ds.is_live(i) for i in (3, 4, 5, 6))


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


# -- query growth across trees ---------------------------------------------------


def test_cross_tree_growth_equals_tree_by_tree_queries(tmp_path):
    ds = make_dataset(600, d=8, seed=40)
    forest = Forest.train(ds, quick_params(n_trees=12, occupancy=0.5, seed=41))
    rng = np.random.default_rng(9)
    for sid in rng.choice(ds.live_ids(), 40, replace=False):
        forest.delete(int(sid))
    forest.unlearn_batch([int(i) for i in rng.choice(ds.live_ids(), 60, replace=False)])
    assert forest.tagged_count() > 0
    save(forest, tmp_path / "tagged.bin")
    together, by_tree = load(tmp_path / "tagged.bin"), load(tmp_path / "tagged.bin")
    X = make_dataset(60, d=8, seed=42).X[:60]

    got = [together.predict(x) for x in X[:30]]
    want = []
    for x in X[:30]:
        counts = [tree.query(x) for tree in by_tree.trees]
        want.append(float(np.mean([pos / n if n else by_tree.prior for n, pos in counts])))
    assert np.array(got).tobytes() == np.array(want).tobytes()

    got = together.predict_many(X[30:])
    counts = [tree.query_many(X[30:]) for tree in by_tree.trees]
    fractions = [np.where(n > 0, pos / np.maximum(n, 1), by_tree.prior) for n, pos in counts]
    want = np.array([np.mean(column) for column in np.transpose(fractions)])
    assert got.tobytes() == want.tobytes()

    assert together.telemetry().nodes_materialized > 0
    for a, b in zip(together.trees, by_tree.trees):
        assert signature(a) == signature(b)
        assert a.n_tagged == b.n_tagged
        assert a.telemetry.as_dict() == b.telemetry.as_dict()
    report = forest_audit(together)
    assert report.ok, report.summary()


def spy_on_growth(monkeypatch):
    """Record, per split-kernel call, the samples each of its counting runs
    sees, and the materialize rounds that make the calls."""
    calls, rounds = [], []
    split_level, count_below, grow = (tree_mod._split_level, tree_mod._count_below,
                                      tree_mod.materialize)

    def spy_split(pairs, cap):
        calls.append([])
        return split_level(pairs, cap)

    def spy_count(thr, lens, vals):
        calls[-1].append(len(vals))
        return count_below(thr, lens, vals)

    def spy_grow(reached):
        rounds.append(len(reached))
        return grow(reached)

    monkeypatch.setattr(tree_mod, "_split_level", spy_split)
    monkeypatch.setattr(tree_mod, "_count_below", spy_count)
    monkeypatch.setattr(tree_mod, "materialize", spy_grow)
    return calls, rounds


def test_tagged_predict_makes_one_kernel_call_per_round(monkeypatch):
    ds = make_dataset(1500, d=8, seed=2)
    forest = Forest.train(ds, ForestParams(
        n_trees=16, occupancy=1.0, seed=2,
        tree=TreeParams(max_depth=12, n_thresholds=5, min_split_size=4)))
    x = ds.X[7].copy()
    forest.delete(7)
    reached = [tree_mod._descend(tree.root, x.tolist()) for tree in forest.trees]
    assert sum(node.tagged for node in reached) >= 10
    calls, rounds = spy_on_growth(monkeypatch)
    forest.predict(x)
    assert len(rounds) > 1
    assert len(calls) == len(rounds)
    assert max(run for call in calls for run in call) <= max(tree.root.n for tree in forest.trees)


def test_no_kernel_call_sees_more_rows_than_the_largest_root(monkeypatch):
    ds = make_dataset(1500, d=8, seed=3)
    forest = Forest.train(ds, ForestParams(
        n_trees=16, occupancy=1.0, seed=3,
        tree=TreeParams(max_depth=10, n_thresholds=5, min_split_size=10)))
    forest.unlearn_batch(list(range(0, 300, 3)))
    cap = max(tree.root.n for tree in forest.trees)
    calls, rounds = spy_on_growth(monkeypatch)
    X = make_dataset(200, d=8, seed=53).X[:200]
    for x in X[:20]:
        forest.predict(x)
    forest.predict_many(X[20:])
    runs = [run for call in calls for run in call]
    assert max(runs) <= cap
    # the tagged frontier of a batch outgrows one run, so the cap binds
    assert len(runs) > len(calls)
    assert forest_audit(forest).ok


def tagged_pairs(forest):
    """(tree, node) for every tagged node of the forest."""
    pairs = []
    for tree in forest.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.tagged:
                pairs.append((tree, node))
            elif node.left is not None:
                stack.extend((node.left, node.right))
    return pairs


def test_materialize_refuses_trees_that_do_not_share_data_and_params():
    def tagged_forest(seed):
        forest = Forest.train(make_dataset(300, d=6, seed=22),
                              quick_params(n_trees=4, occupancy=1.0, seed=seed))
        for sid in range(0, 60, 2):
            forest.delete(sid)
        return forest

    forest, other = tagged_forest(5), tagged_forest(6)
    first = tagged_pairs(forest)[0]
    second = next(pair for pair in tagged_pairs(forest) if pair[0] is not first[0])
    foreign = tagged_pairs(other)[0]
    second[0].params = dataclasses.replace(first[0].params, max_depth=7)
    for pair in (second, foreign):
        counts = (first[0].n_tagged, pair[0].n_tagged)
        with pytest.raises(ValueError, match="share one Dataset and one TreeParams"):
            materialize([first, pair])
        assert (first[0].n_tagged, pair[0].n_tagged) == counts
        assert first[1].tagged and pair[1].tagged
    # equal parameters in distinct objects are one TreeParams
    second[0].params = dataclasses.replace(first[0].params)
    materialize([first, second])
    assert not first[1].tagged and not second[1].tagged
    assert forest_audit(forest).ok
