"""Schema, CSV loading, and Dataset storage semantics."""

from __future__ import annotations

import numpy as np
import pytest

from dynforest.data import (Column, Dataset, ParseError, Schema, SchemaError,
                            dataset_from_arrays, load_csv, load_schema,
                            save_schema, train_test_split)


def adult_like_schema():
    return Schema((Column("age", "numeric"),
                   Column("workclass", "categorical", ("Federal-gov", "Private", "Self-emp")),
                   Column("hours", "numeric"),
                   Column("income", "label")),
                  positive_label=">50K")


def test_schema_shape_and_names():
    schema = adult_like_schema()
    assert schema.n_attrs == 5  # 2 numeric + 3 one-hot
    assert schema.attr_names() == [
        "age", "workclass=Federal-gov", "workclass=Private", "workclass=Self-emp", "hours"]


def test_schema_validation_errors():
    with pytest.raises(SchemaError):  # no label column
        Schema((Column("a", "numeric"),), positive_label="1")
    with pytest.raises(SchemaError):  # two label columns
        Schema((Column("a", "label"), Column("b", "label")), positive_label="1")
    with pytest.raises(SchemaError):  # duplicate names
        Schema((Column("a", "numeric"), Column("a", "numeric"), Column("y", "label")),
               positive_label="1")
    with pytest.raises(SchemaError):  # unknown kind
        Schema((Column("a", "weird"), Column("y", "label")), positive_label="1")
    with pytest.raises(SchemaError):  # categorical without values
        Schema((Column("a", "categorical"), Column("y", "label")), positive_label="1")
    with pytest.raises(SchemaError):  # duplicate categorical values
        Schema((Column("a", "categorical", ("x", "x")), Column("y", "label")),
               positive_label="1")


def test_encode_row_one_hot_and_label():
    schema = adult_like_schema()
    x, label = schema.encode_row(["39", "Private", "40", ">50K"], line_no=2)
    assert x.tolist() == [39.0, 0.0, 1.0, 0.0, 40.0]
    assert label == 1
    x, label = schema.encode_row(["20", "Federal-gov", "12", "<=50K"], line_no=3)
    assert x.tolist() == [20.0, 1.0, 0.0, 0.0, 12.0]
    assert label == 0


def test_encode_row_errors_name_the_line():
    schema = adult_like_schema()
    with pytest.raises(ParseError, match="line 7"):
        schema.encode_row(["39", "Private", "40"], line_no=7)  # arity
    with pytest.raises(ParseError, match="line 9.*not numeric"):
        schema.encode_row(["x", "Private", "40", ">50K"], line_no=9)
    with pytest.raises(SchemaError, match="line 4.*workclass.*'Nope'"):
        schema.encode_row(["39", "Nope", "40", ">50K"], line_no=4)
    with pytest.raises(SchemaError, match="empty label"):
        schema.encode_row(["39", "Private", "40", ""], line_no=5)
    for line_no, cell in enumerate(("nan", "inf", "-Infinity"), start=11):
        with pytest.raises(ParseError, match="line %d.*not finite" % line_no):
            schema.encode_row(["39", "Private", cell, ">50K"], line_no=line_no)


def test_schema_json_round_trip(tmp_path):
    schema = adult_like_schema()
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    again = load_schema(path)
    assert again == schema


def test_load_schema_rejects_bad_documents(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        load_schema(path)
    path.write_text('{"columns": []}')
    with pytest.raises(SchemaError):
        load_schema(path)


def test_load_csv_round_trips_floats_exactly(tmp_path):
    # values must survive text -> float -> storage bit-for-bit
    schema = Schema((Column("a", "numeric"), Column("y", "label")), positive_label="1")
    path = tmp_path / "d.csv"
    path.write_text("a,y\n0.1,1\n2.2250738585072014e-308,0\n-1e300,1\n\n")
    ds = load_csv(path, schema)
    assert ds.n_live == 3  # trailing blank line skipped
    assert ds.features(0)[0] == 0.1
    assert ds.features(1)[0] == 2.2250738585072014e-308
    assert ds.features(2)[0] == -1e300
    assert [ds.label(i) for i in range(3)] == [1, 0, 1]


def test_load_csv_header_must_match(tmp_path):
    schema = Schema((Column("a", "numeric"), Column("y", "label")), positive_label="1")
    path = tmp_path / "d.csv"
    path.write_text("a,z\n1,1\n")
    with pytest.raises(SchemaError, match="header"):
        load_csv(path, schema)


def test_load_csv_reports_offending_line(tmp_path):
    schema = Schema((Column("a", "numeric"), Column("y", "label")), positive_label="1")
    path = tmp_path / "d.csv"
    path.write_text("a,y\n1,1\n2,0\nbad,1\n")
    with pytest.raises(ParseError, match="line 4"):
        load_csv(path, schema)


def test_one_hot_is_exactly_one_per_categorical():
    schema = adult_like_schema()
    rng = np.random.default_rng(3)
    values = ("Federal-gov", "Private", "Self-emp")
    for _ in range(50):
        raw = [str(rng.integers(100)), values[rng.integers(3)],
               str(rng.integers(80)), ">50K"]
        x, _ = schema.encode_row(raw)
        assert x[1:4].sum() == 1.0
        assert set(x[1:4]) <= {0.0, 1.0}


def test_dataset_ids_are_stable_and_never_reused():
    ds = Dataset(2)
    a = ds.add([1.0, 2.0], 1)
    b = ds.add([3.0, 4.0], 0)
    assert (a, b) == (0, 1)
    ds.tombstone(a)
    c = ds.add([5.0, 6.0], 1)
    assert c == 2  # id 0 stays retired
    assert ds.live_ids().tolist() == [1, 2]
    assert ds.n_live == 2 and ds.n_pos == 1


def test_dataset_rejects_dead_and_unknown_ids():
    ds = Dataset(1)
    sid = ds.add([1.0], 1)
    ds.tombstone(sid)
    with pytest.raises(KeyError, match="dead"):
        ds.features(sid)
    with pytest.raises(KeyError, match="unknown"):
        ds.label(99)
    with pytest.raises(KeyError):
        ds.tombstone(sid)  # double delete


def test_dataset_validates_rows():
    ds = Dataset(2)
    with pytest.raises(ValueError):
        ds.add([1.0], 1)  # wrong width
    with pytest.raises(ValueError):
        ds.add([1.0, 2.0], 3)  # bad label
    with pytest.raises(ValueError, match="finite"):
        ds.add([1.0, np.inf], 1)
    with pytest.raises(ValueError, match="finite"):
        ds.add([np.nan, 2.0], 0)
    assert ds.n_live == 0 and ds.next_id == 0


def test_add_many_appends_a_block_or_nothing():
    ds = Dataset(2, capacity=16)
    ds.add([9.0, 9.0], 1)
    rows = np.arange(60.0).reshape(30, 2)
    labels = np.arange(30) % 2
    assert ds.add_many(rows, labels).tolist() == list(range(1, 31))
    assert np.array_equal(ds.X[1:], rows) and ds.y[1:].tolist() == labels.tolist()
    assert ds.n_live == 31 and ds.n_pos == 16
    bad = rows.copy()
    bad[7, 1] = np.inf
    for X, y in ((bad, labels), (rows, labels * 2), (rows, labels[:5]), (rows[:, :1], labels)):
        with pytest.raises(ValueError):
            ds.add_many(X, y)
    assert ds.n_live == 31 and ds.next_id == 31 and ds.n_pos == 16


def test_dataset_growth_preserves_rows():
    ds = Dataset(3, capacity=16)
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(500, 3))
    for i in range(500):
        ds.add(rows[i], int(i % 2))
    assert ds.n_live == 500
    assert np.array_equal(ds.X, rows)
    assert ds.n_pos == 250


def test_train_test_split_is_deterministic_and_disjoint():
    ds = dataset_from_arrays(np.arange(100.0).reshape(100, 1),
                             np.tile([0, 1], 50))
    tr1, te1 = train_test_split(ds, 0.3, seed=11)
    tr2, te2 = train_test_split(ds, 0.3, seed=11)
    assert te1.n_live == 30 and tr1.n_live == 70
    assert np.array_equal(tr1.X, tr2.X) and np.array_equal(te1.X, te2.X)
    merged = np.sort(np.concatenate([tr1.X[:, 0], te1.X[:, 0]]))
    assert np.array_equal(merged, np.arange(100.0))
    tr3, _ = train_test_split(ds, 0.3, seed=12)
    assert not np.array_equal(tr1.X, tr3.X)  # different seed, different split


def test_train_test_split_degenerate_fractions():
    ds = dataset_from_arrays([[1.0], [2.0]], [0, 1])
    tr, te = train_test_split(ds, 0.0, seed=0)
    assert tr.n_live == 2 and te.n_live == 0
    tr, te = train_test_split(ds, 1.0, seed=0)
    assert tr.n_live == 0 and te.n_live == 2
    with pytest.raises(ValueError):
        train_test_split(ds, 1.5, seed=0)
