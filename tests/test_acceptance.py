"""Acceptance gate: ten end-to-end checks with explicit tolerances.

Each check prints one verdict line straight to the terminal (capture is
bypassed) so a full run reads as a checklist.  The expensive timed trains
on the 10^5-sample dataset are shared through a module fixture.  Checks
that compare wall-clock times use generous bands, not exact values, and
every check also enforces its own runtime cap.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from dynforest import bench, criterion as crit
from dynforest.data import dataset_from_arrays
from dynforest.forest import Forest, ForestParams, subsample_count
from dynforest.metrics import accuracy
from dynforest.oracle import (AttributeSlot, forest_audit, naive_retrain, occupancy_check,
                              score_candidates, sortmerge_best_split)
from dynforest.snapshot import load, save
from dynforest.stream import generate_stream, replay, summarize
from dynforest.synth import make_arrays, make_dataset
from dynforest.tree import TreeParams

from adult_data import adult_dir, load_adult


def conclude(capsys, num, name, ok, detail, cap_s, elapsed_s):
    """Print the verdict line for one check, then enforce it."""
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print("ACCEPTANCE %02d %-28s %s (%s; %.1fs of %ds cap)"
              % (num, name, verdict, detail, elapsed_s, cap_s), flush=True)
    assert ok, "%s: %s" % (name, detail)
    assert elapsed_s < cap_s, "%s exceeded its %ds runtime cap (%.1fs)" % (name, cap_s, elapsed_s)


# -- shared heavy work ----------------------------------------------------------


BIG_N = 100_000
BIG_TREE = TreeParams(max_depth=15, n_thresholds=15, min_split_size=10)


def big_params(occupancy, seed=1):
    return ForestParams(n_trees=100, occupancy=occupancy, seed=seed, tree=BIG_TREE)


@pytest.fixture(scope="module")
def timed_trains():
    """One 10^5-sample dataset with timed trains at full and 0.1 occupancy.

    Returns {"ds", "t_full", "t_sub", "forest_sub"}; the full-occupancy
    forest itself is discarded to cap memory.
    """
    ds = make_dataset(BIG_N, d=20, seed=0)
    full, t_full = bench.timed(Forest.train, ds, big_params(1.0))
    del full
    gc.collect()
    forest_sub, t_sub = bench.timed(Forest.train, ds, big_params(0.1))
    return {"ds": ds, "t_full": t_full, "t_sub": t_sub, "forest_sub": forest_sub}


# -- 1: every sample sits in exactly ceil(q*T) trees -----------------------------


def test_01_occupancy_law(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(20, 400))
        n_trees = int(rng.integers(1, 41))
        if trial == 0:
            q = 1.0  # pin the edges of the occupancy range
        elif trial == 1:
            q = 1e-6
        else:
            q = float(rng.uniform(0.01, 1.0))
        d = int(rng.integers(5, 12))
        ds = make_dataset(n, d=d, seed=trial)
        params = ForestParams(n_trees=n_trees, occupancy=q, seed=trial,
                              tree=TreeParams(max_depth=5, n_thresholds=4,
                                              min_split_size=5))
        forest = Forest.train(ds, params)
        k = subsample_count(q, n_trees)
        assert 1 <= k <= n_trees
        for row in forest.assignment[ds.live_ids()].tolist():
            assert len(row) == k and len(set(row)) == k
        total = sum(len(t.root.ids) for t in forest.trees)
        assert total == k * n, "membership total %d != k*n %d" % (total, k * n)
        report = occupancy_check(forest)
        assert report.ok, report.summary()
        checked += 1
    elapsed = time.perf_counter() - start
    conclude(capsys, 1, "occupancy-law", checked == 50,
             "50 random configs, exact k membership", 60, elapsed)


# -- 2: cached split scan == sort-merge reference ---------------------------------


def test_02_split_finder_matches_reference(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    for trial in range(1000):
        m = int(rng.integers(1, 1001))
        s = int(rng.integers(1, 41))
        if trial % 3 == 0:
            values = rng.integers(0, 8, size=m).astype(np.float64)  # heavy ties
        else:
            values = np.round(rng.normal(size=m), 2)
        labels = (rng.random(m) < 0.5).astype(np.int64)
        pool = np.concatenate([values, rng.normal(size=s)])
        thr = np.sort(rng.choice(pool, size=s, replace=True))
        ds = dataset_from_arrays(values[:, None], labels)
        vmin, vmax = float(values.min()), float(values.max())
        slot = AttributeSlot(0, vmin, vmax, thr, None, None, None)
        got = score_candidates(np.arange(m), ds, slot, "gini")
        ob, oc = sortmerge_best_split(values, labels == 1, thr)
        assert np.array_equal(got.b, ob), "trial %d: b drifted" % trial
        assert np.array_equal(got.c, oc), "trial %d: c drifted" % trial
        if vmin == vmax:
            want = np.full(s, np.inf)
        else:
            want = crit.score_matrix(ob, oc, m, int(labels.sum()), "gini")
        assert np.array_equal(got.score, want), "trial %d: scores drifted" % trial
    elapsed = time.perf_counter() - start
    conclude(capsys, 2, "split-finder-equivalence", True,
             "1000 instances bit-exact vs sort-merge", 60, elapsed)


# -- 3: cached statistics survive an operation storm -------------------------------


def test_03_fuzzed_operations_audit_clean(capsys):
    start = time.perf_counter()
    base_X, base_y = make_arrays(5000, d=10, seed=33)
    ds = dataset_from_arrays(base_X, base_y)
    params = ForestParams(n_trees=10, occupancy=0.5, seed=33,
                          tree=TreeParams(max_depth=10, n_thresholds=8,
                                          min_split_size=10))
    forest = Forest.train(ds, params)
    rng = np.random.default_rng(44)
    audits = 0
    for step in range(10_000):
        r = rng.random()
        if r < 0.35 and ds.n_live > 100:
            forest.delete(int(rng.choice(ds.live_ids())))
        elif r < 0.70:
            row = base_X[int(rng.integers(len(base_X)))] + rng.normal(scale=0.02, size=10)
            forest.add(row, int(rng.integers(2)))
        else:
            forest.predict(base_X[int(rng.integers(len(base_X)))])
        if step % 1000 == 999:
            report = forest_audit(forest)
            assert report.ok, "step %d: %s" % (step, report.summary())
            audits += 1
    forest.flush()
    final = forest_audit(forest)
    assert final.ok, final.summary()
    elapsed = time.perf_counter() - start
    conclude(capsys, 3, "fuzzed-audit", audits == 10,
             "10^4 ops, 10 clean audits + post-flush audit", 300, elapsed)


# -- 4: unlearn-then-flush matches retrain-from-scratch ----------------------------


def test_04_unlearning_matches_retraining(capsys):
    start = time.perf_counter()
    X, y = make_arrays(30_000, d=20, seed=55)
    X_tr, y_tr = X[:24_000], y[:24_000]
    X_te, y_te = X[24_000:], y[24_000:]
    fractions = (0.01, 0.05, 0.10)
    acc_unlearned = {f: [] for f in fractions}
    acc_retrained = {f: [] for f in fractions}

    def score(forest):
        return accuracy(y_te, forest.predict_many(X_te) >= 0.5)

    for trial in range(10):
        ds = dataset_from_arrays(X_tr, y_tr)
        params = ForestParams(n_trees=20, occupancy=0.5, seed=500 + trial,
                              tree=TreeParams(max_depth=12, n_thresholds=10,
                                              min_split_size=10))
        forest = Forest.train(ds, params)
        order = np.random.default_rng(600 + trial).permutation(24_000)
        removed = 0
        for frac in fractions:
            upto = round(24_000 * frac)
            forest.unlearn_batch([int(i) for i in order[removed:upto]],
                                 finalize=True)
            removed = upto
            acc_unlearned[frac].append(score(forest))
            acc_retrained[frac].append(score(naive_retrain(ds, params)))

    gaps = {f: abs(np.mean(acc_unlearned[f]) - np.mean(acc_retrained[f]))
            for f in fractions}
    ok = all(gap < 0.01 for gap in gaps.values())
    detail = ", ".join("%.0f%%: gap %.4f" % (f * 100, gaps[f]) for f in fractions)
    elapsed = time.perf_counter() - start
    conclude(capsys, 4, "unlearning-exactness", ok, detail, 900, elapsed)


# -- 5: census-income accuracy with the published preset ---------------------------


def test_05_census_income_accuracy(capsys):
    start = time.perf_counter()
    root = adult_dir()
    if root is None:
        with capsys.disabled():
            print("ACCEPTANCE 05 %-28s SKIP (adult.data/adult.test not found; "
                  "place them in data/adult/ or set DYNFOREST_ADULT_DIR)"
                  % "census-income-accuracy", flush=True)
        pytest.skip("adult census files not available in this environment")
    ds, X_te, y_te = load_adult(root)
    params = ForestParams(n_trees=100, occupancy=0.2, seed=7,
                          tree=TreeParams(max_depth=20, n_thresholds=30,
                                          min_split_size=10))
    forest = Forest.train(ds, params)
    acc = accuracy(y_te, forest.predict_many(X_te) >= 0.5)
    ok = abs(acc - 0.8650) < 0.01
    elapsed = time.perf_counter() - start
    conclude(capsys, 5, "census-income-accuracy", ok,
             "accuracy %.4f vs 0.8650 +/- 0.01" % acc, 600, elapsed)


# -- 6: occupancy subsampling buys proportional training time ----------------------


def test_06_training_speedup(capsys, timed_trains):
    start = time.perf_counter()
    ratio = timed_trains["t_full"] / timed_trains["t_sub"]
    ok = 5.0 <= ratio <= 20.0
    elapsed = time.perf_counter() - start
    conclude(capsys, 6, "training-speedup", ok,
             "full %.1fs / sub %.1fs = %.2fx (need 5-20x)"
             % (timed_trains["t_full"], timed_trains["t_sub"], ratio),
             600, elapsed + timed_trains["t_full"] + timed_trains["t_sub"])


# -- 7: per-deletion cost vs retraining from scratch --------------------------------


def test_07_sequential_unlearning_boost(capsys, timed_trains):
    start = time.perf_counter()
    forest = timed_trains["forest_sub"]
    forest.lazy = False  # rebuild tagged subtrees inside each delete
    rng = np.random.default_rng(77)
    victims = [int(i) for i in rng.choice(forest.ds.live_ids(), 200, replace=False)]
    per_op, _ = bench.sequential_unlearn(forest, victims)
    boost = timed_trains["t_full"] / float(per_op.mean())
    ok = boost >= 100.0
    elapsed = time.perf_counter() - start
    conclude(capsys, 7, "sequential-unlearn-boost", ok,
             "mean delete %.2fms vs full train %.1fs: %.0fx (need >= 100x)"
             % (per_op.mean() * 1e3, timed_trains["t_full"], boost), 900, elapsed)


# -- 8: batched unlearning flattens out -----------------------------------------------


def test_08_batch_runtime_convergence(capsys, tmp_path):
    # one trained forest, saved; each batch size is timed on three fresh
    # loads of it and the median taken, so no ratio rests on a single call
    start = time.perf_counter()
    ds = make_dataset(BIG_N, d=20, seed=0)
    path = tmp_path / "model.bin"
    save(Forest.train(ds, big_params(0.1)), path)
    live = ds.live_ids()
    del ds
    gc.collect()
    totals = []
    for size in (100, 1000, 10_000):
        batch = [int(i) for i in np.random.default_rng(88).choice(live, size, replace=False)]
        runs = []
        for _ in range(3):
            forest = load(path)
            runs.append(bench.timed(forest.unlearn_batch, batch, finalize=True)[1])
            del forest
            gc.collect()
        totals.append(float(np.median(runs)))
    first = totals[1] / totals[0]
    last = totals[2] / totals[1]
    ok = first < 5.0 and last < 5.0 and last < first
    elapsed = time.perf_counter() - start
    conclude(capsys, 8, "batch-convergence", ok,
             "totals %.2f/%.2f/%.2fs, decade growth %.2fx then %.2fx "
             "(need both < 5x and decreasing)"
             % (totals[0], totals[1], totals[2], first, last), 900, elapsed)


# -- 9: fewer modifications => faster queries -------------------------------------------


def test_09_stream_query_latency_ordering(capsys, tmp_path):
    start = time.perf_counter()
    ds = make_dataset(BIG_N, d=20, seed=0)
    forest, _ = bench.timed(Forest.train, ds, big_params(0.1, seed=9))
    path = tmp_path / "model.bin"
    save(forest, path)
    del forest, ds
    gc.collect()

    means = {}
    for share, seed in ((0.5, 91), (0.01, 92)):
        copy = load(path)
        lines = generate_stream(copy.ds, 3000, mod_share=share, seed=seed)
        stats = summarize(replay(copy, lines))
        means[share] = stats["query"]["mean_us"]
        del copy
        gc.collect()
    ok = means[0.01] < means[0.5]
    elapsed = time.perf_counter() - start
    conclude(capsys, 9, "stream-latency-ordering", ok,
             "mean query 50%%-mod %.0fus vs 1%%-mod %.0fus (need strict drop)"
             % (means[0.5], means[0.01]), 600, elapsed)


# -- 10: two processes, identical bytes -------------------------------------------------


def test_10_cross_process_determinism(capsys, tmp_path):
    start = time.perf_counter()

    def invoke(*argv):
        out = subprocess.run([sys.executable, "-m", "dynforest", *argv],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return out.stdout

    evals = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        invoke("gen-data", "--out", str(root / "d.csv"),
               "--schema-out", str(root / "s.json"),
               "--rows", "3000", "--attrs", "8", "--seed", "5")
        invoke("train", "--csv", str(root / "d.csv"), "--schema", str(root / "s.json"),
               "--model", str(root / "m.bin"), "--trees", "12", "--q", "0.5",
               "--depth", "8", "--thresholds", "6", "--seed", "9")
        evals.append(invoke("eval", "--csv", str(root / "d.csv"),
                            "--schema", str(root / "s.json"),
                            "--model", str(root / "m.bin")))
    bytes_one = (tmp_path / "one" / "m.bin").read_bytes()
    bytes_two = (tmp_path / "two" / "m.bin").read_bytes()
    same_bytes = bytes_one == bytes_two
    same_eval = evals[0] == evals[1]
    probe = make_dataset(200, d=8, seed=10).X[:200]
    pred_one = load(tmp_path / "one" / "m.bin").predict_many(probe)
    pred_two = load(tmp_path / "two" / "m.bin").predict_many(probe)
    same_preds = np.array_equal(pred_one, pred_two)
    ok = same_bytes and same_eval and same_preds
    elapsed = time.perf_counter() - start
    conclude(capsys, 10, "cross-process-determinism", ok,
             "snapshots byte-identical=%s, eval output identical=%s, "
             "predictions identical=%s" % (same_bytes, same_eval, same_preds),
             300, elapsed)