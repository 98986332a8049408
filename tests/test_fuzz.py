"""Property-based fuzz of forest operations: valid ones interleaved with ones
the forest must reject, each rejection leaving the forest exactly as it was;
and single-sample updates walking all k trees together against the same
updates sent to the trees one at a time."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynforest.forest import Forest
from dynforest.oracle import forest_audit
from dynforest.snapshot import load, save
from dynforest.synth import make_dataset
from test_forest import quick_params
from test_updates import TreeByTree

D = 6
PROBE = make_dataset(40, d=D, seed=61).X[:40]
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
VALID = ("delete", "add", "predict", "predict_many", "unlearn_batch")
INVALID = ("add_non_finite", "predict_non_finite", "predict_many_non_finite",
           "delete_dead", "unlearn_dead", "unlearn_repeated")


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        forest = Forest.train(make_dataset(240, d=D, seed=60),
                              quick_params(n_trees=6, occupancy=0.5, seed=62))
        save(forest, os.path.join(path, "base.bin"))
        yield path


def snapshot_bytes(forest, path):
    save(forest, path)
    with open(path, "rb") as f:
        return f.read()


def probe_rows(data, label):
    rows = data.draw(st.lists(st.integers(0, len(PROBE) - 1), min_size=1, max_size=8),
                     label=label)
    return PROBE[rows].copy()


def run_valid(forest, op, data):
    ds = forest.ds
    live = ds.live_ids().tolist()
    if op == "delete" and len(live) > 20:
        forest.delete(data.draw(st.sampled_from(live), label="delete id"))
    elif op == "add":
        x = probe_rows(data, "add row")[0] + data.draw(st.floats(-0.05, 0.05), label="shift")
        forest.add(x, data.draw(st.integers(0, 1), label="label"))
    elif op == "predict":
        assert 0.0 <= forest.predict(probe_rows(data, "predict row")[0]) <= 1.0
    elif op == "predict_many":
        probs = forest.predict_many(probe_rows(data, "predict rows"))
        assert ((probs >= 0.0) & (probs <= 1.0)).all()
    elif op == "unlearn_batch" and len(live) > 40:
        forest.unlearn_batch(data.draw(st.lists(st.sampled_from(live), min_size=1,
                                                max_size=12, unique=True),
                                       label="batch"))


def run_invalid(forest, op, data):
    """Attempt an operation the forest must reject; returns the error and
    the first bad row of a non-finite one."""
    ds = forest.ds
    live = ds.live_ids().tolist()
    dead = [i for i in range(ds.next_id + 3) if not ds.is_live(i)]
    rows = probe_rows(data, "rows")
    bad = data.draw(st.integers(0, len(rows) - 1), label="bad row")
    rows[bad, data.draw(st.integers(0, D - 1), label="bad column")] = data.draw(NON_FINITE)
    with pytest.raises((ValueError, KeyError)) as err:
        if op == "add_non_finite":
            forest.add(rows[bad], 1)
        elif op == "predict_non_finite":
            forest.predict(rows[bad])
        elif op == "predict_many_non_finite":
            forest.predict_many(rows)
        elif op == "delete_dead":
            forest.delete(data.draw(st.sampled_from(dead), label="dead id"))
        elif op == "unlearn_dead":
            batch = data.draw(st.lists(st.sampled_from(live), max_size=6, unique=True))
            batch.insert(data.draw(st.integers(0, len(batch))), data.draw(st.sampled_from(dead)))
            forest.unlearn_batch(batch)
        else:
            batch = data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=6,
                                       unique=True))
            batch.append(data.draw(st.sampled_from(batch), label="repeated id"))
            forest.unlearn_batch(batch)
    return err.value, bad if op == "predict_many_non_finite" else 0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rejected_operations_leave_the_forest_unchanged(workdir, data):
    forest = load(os.path.join(workdir, "base.bin"))
    scratch = os.path.join(workdir, "scratch.bin")
    ops = data.draw(st.lists(st.sampled_from(VALID + INVALID), min_size=1, max_size=14),
                    label="ops")
    for op in ops:
        if op in VALID:
            run_valid(forest, op, data)
            continue
        before = snapshot_bytes(forest, scratch)
        err, bad = run_invalid(forest, op, data)
        if op.endswith("non_finite"):
            assert "finite, row %d " % bad in str(err)
        assert snapshot_bytes(forest, scratch) == before, op
        report = forest_audit(forest)
        assert report.ok, "%s: %s" % (op, report.summary())


def draw_request(forest, op, data):
    """The arguments of one delete, add or predict, drawn once so that
    twin forests can replay it."""
    if op == "delete":
        return data.draw(st.sampled_from(forest.ds.live_ids().tolist()), label="delete id")
    if op == "add":
        x = probe_rows(data, "add row")[0] + data.draw(st.floats(-0.05, 0.05), label="shift")
        return x, data.draw(st.integers(0, 1), label="label")
    if op == "predict":
        return probe_rows(data, "predict row")[0]
    return probe_rows(data, "predict rows")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), lazy=st.booleans())
def test_stacked_updates_save_the_bytes_of_tree_by_tree_updates(workdir, data, lazy):
    stacked = load(os.path.join(workdir, "base.bin"))
    by_tree = load(os.path.join(workdir, "base.bin"))
    by_tree.__class__ = TreeByTree
    stacked.lazy = by_tree.lazy = lazy
    ops = data.draw(st.lists(st.sampled_from(("delete", "add", "predict", "predict_many")),
                             min_size=1, max_size=20), label="ops")
    for op in ops:
        arg = draw_request(stacked, op, data)
        if op == "delete":
            stacked.delete(arg)
            by_tree.delete(arg)
        elif op == "add":
            assert stacked.add(*arg) == by_tree.add(*arg)
        else:
            call = "predict" if op == "predict" else "predict_many"
            got = np.asarray(getattr(stacked, call)(arg))
            assert got.tobytes() == np.asarray(getattr(by_tree, call)(arg)).tobytes()
    assert (snapshot_bytes(stacked, os.path.join(workdir, "stacked.bin"))
            == snapshot_bytes(by_tree, os.path.join(workdir, "by_tree.bin")))
    assert stacked.telemetry() == by_tree.telemetry()
