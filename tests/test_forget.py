"""A deleted row leaves memory and every model file written after it.

The row holds sentinel features, one distinct float64 per attribute; after
the row is deleted, none of their byte patterns may appear in the
Dataset's feature matrix or in a saved snapshot, whichever way the row was
deleted and whatever tags were pending.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

from dynforest.cli import main
from dynforest.data import LABEL, NUMERIC, Column, Schema, dataset_from_arrays, save_schema
from dynforest.forest import Forest
from dynforest.oracle import forest_audit
from dynforest.snapshot import load, save
from dynforest.synth import make_arrays
from test_forest import quick_params

D = 6
ROW = 17


def sentinel_arrays(seed, outlier):
    """Synthetic rows with row ROW replaced by sentinels: inside the data's
    range, or beyond it in every attribute (a boundary of every range)."""
    X, y = make_arrays(400, d=D, seed=seed)
    base = 4.0 if outlier else 0.25
    X[ROW] = base + np.arange(D) * 0.0712345678901234 + 1.23456789e-9
    return X, y


def sentinel_bytes(X):
    return [np.float64(v).tobytes() for v in X[ROW]]


def assert_forgotten(forest, patterns, tmp_path):
    assert not forest.ds.is_live(ROW)
    held = forest.ds.X.tobytes()
    assert not [p for p in patterns if p in held]
    assert forest.ds.y[ROW] == 0
    path = tmp_path / "after.bin"
    save(forest, path)
    data = path.read_bytes()
    assert not [p for p in patterns if p in data]
    assert forest_audit(forest).ok


def forest_with_tags(seed, outlier):
    X, y = sentinel_arrays(seed, outlier)
    forest = Forest.train(dataset_from_arrays(X, y),
                          quick_params(n_trees=8, occupancy=0.5, seed=seed))
    rng = np.random.default_rng(seed)
    others = [int(i) for i in rng.choice(400, 40, replace=False) if i != ROW]
    for sid in others[:15]:
        forest.delete(sid)  # tags pending before the row goes
    return forest, sentinel_bytes(X), others[15:]


@pytest.mark.parametrize("outlier", [False, True], ids=["inside", "outlier"])
@pytest.mark.parametrize("seed", range(6))
def test_forest_delete_forgets_the_row(tmp_path, seed, outlier):
    forest, patterns, _ = forest_with_tags(seed, outlier)
    save(forest, tmp_path / "before.bin")
    assert all(p in (tmp_path / "before.bin").read_bytes() for p in patterns)
    forest.delete(ROW)
    assert_forgotten(forest, patterns, tmp_path)


@pytest.mark.parametrize("outlier", [False, True], ids=["inside", "outlier"])
@pytest.mark.parametrize("seed", range(6))
def test_unlearn_batch_forgets_the_row(tmp_path, seed, outlier):
    forest, patterns, others = forest_with_tags(seed, outlier)
    forest.unlearn_batch(others[:10] + [ROW])
    assert_forgotten(forest, patterns, tmp_path)


@pytest.mark.parametrize("batch", [False, True], ids=["delete", "unlearn_batch"])
@pytest.mark.parametrize("emptied", ["tagged", "grid_leaf"])
def test_emptied_node_forgets_its_last_rows(tmp_path, batch, emptied):
    """Deleting every row empties the root, which keeps its grid: tagged
    (a split node whose stop rule came to hold), or an untagged leaf whose
    slots are all constant (identical rows with mixed labels).  No live
    value is left to rescan its ranges to, yet it must keep none."""
    if emptied == "tagged":
        X, y = make_arrays(60, d=5, seed=4)
    else:
        X = np.tile(0.25 + np.arange(D) * 0.0712345678901234, (30, 1))
        y = np.arange(30) % 2
    forest = Forest.train(dataset_from_arrays(X.copy(), y),
                          quick_params(n_trees=1, occupancy=1.0, seed=4))
    root = forest.trees[0].root
    if batch:
        forest.unlearn_batch(range(len(X)))
    else:
        for sid in range(len(X)):
            forest.delete(sid)
    assert root.n == 0 and root.row != -1 and root.tagged == (emptied == "tagged")
    path = tmp_path / "empty.bin"
    save(forest, path)
    data = path.read_bytes()
    assert not [v for v in np.unique(X) if np.float64(v).tobytes() in data]
    assert forest_audit(load(path)).ok
    # the emptied grid takes new rows as any grid does
    forest.add(X[0], 1)
    forest.add(X[1] * 1.5, 0)
    assert forest_audit(forest).ok


def test_tombstone_many_zeroes_rows_in_one_step_and_checks_first():
    X, y = sentinel_arrays(0, True)
    ds = dataset_from_arrays(X, y)
    n_pos = ds.n_pos
    with pytest.raises(KeyError):
        ds.tombstone_many([ROW, ROW])
    with pytest.raises(KeyError):
        ds.tombstone_many([ROW, 10 ** 6])
    assert ds.is_live(ROW) and ds.n_live == 400
    ds.tombstone_many([ROW, 3])
    assert not ds.is_live(ROW) and not ds.is_live(3) and ds.n_live == 398
    assert ds.n_pos == n_pos - int(y[ROW]) - int(y[3])
    assert not ds.X[[ROW, 3]].any() and not ds.y[[ROW, 3]].any()



def test_tombstone_many_names_the_first_id_not_live():
    X, y = sentinel_arrays(0, True)
    ds = dataset_from_arrays(X, y)
    ds.tombstone(5)
    with pytest.raises(KeyError, match="sample id 5 is dead"):
        ds.tombstone_many([3, 5, 10 ** 6])
    with pytest.raises(KeyError, match="sample id 1000000 is unknown"):
        ds.tombstone_many([3, 10 ** 6, 5])
    with pytest.raises(KeyError, match="sample id -1 is unknown"):
        ds.tombstone_many([-1, 5])
    with pytest.raises(KeyError, match="distinct"):
        ds.tombstone_many([3, 4, 3])
    assert ds.n_live == 399 and ds.is_live(3) and ds.is_live(4)

def write_csv(tmp_path, X, y):
    schema = Schema(tuple(Column("a%d" % j, NUMERIC) for j in range(D))
                    + (Column("label", LABEL),), "1")
    save_schema(schema, tmp_path / "schema.json")
    with open(tmp_path / "data.csv", "w", newline="") as f:
        out = csv.writer(f)
        out.writerow([c.name for c in schema.columns])
        for row, label in zip(X.tolist(), y.tolist()):
            out.writerow([repr(v) for v in row] + [label])
    return str(tmp_path / "data.csv"), str(tmp_path / "schema.json")


@pytest.mark.parametrize("command", ["unlearn-seq", "unlearn-batch"])
def test_cli_unlearn_forgets_the_row(tmp_path, capsys, command):
    X, y = sentinel_arrays(5, True)
    csv_path, schema_path = write_csv(tmp_path, X, y)
    model = str(tmp_path / "model.bin")
    assert main(["train", "--csv", csv_path, "--schema", schema_path, "--model", model,
                 "--trees", "8", "--q", "0.5", "--depth", "7", "--thresholds", "5",
                 "--seed", "3"]) == 0
    patterns = sentinel_bytes(X)
    with open(model, "rb") as f:
        data = f.read()
    assert all(p in data for p in patterns)
    out = str(tmp_path / "after.bin")
    extra = ["--skip-naive"] if command == "unlearn-seq" else []
    assert main([command, "--model", model, "--ids", "3,%d,40" % ROW,
                 "--model-out", out] + extra) == 0
    capsys.readouterr()
    with open(out, "rb") as f:
        data = f.read()
    assert not [p for p in patterns if p in data]
