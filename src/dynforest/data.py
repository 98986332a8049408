"""Tabular binary-classification data handling.

A Schema describes raw CSV columns (numeric / categorical / label) and how
they map onto a dense float feature matrix: numeric columns pass through,
categorical columns expand to one indicator attribute per known value.
A Dataset owns the encoded rows, hands out stable integer ids, and supports
tombstone deletion so ids are never reused.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
LABEL = "label"


class SchemaError(ValueError):
    """Schema is malformed, or a row contradicts it."""


class ParseError(ValueError):
    """A CSV row (or stream request) could not be parsed."""


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    values: tuple[str, ...] = ()  # categorical only, stored sorted


@dataclass(frozen=True)
class Schema:
    """Column layout of a raw CSV file plus the positive label value."""

    columns: tuple[Column, ...]
    positive_label: str

    def __post_init__(self):
        labels = [c for c in self.columns if c.kind == LABEL]
        if len(labels) != 1:
            raise SchemaError("schema needs exactly one label column, got %d" % len(labels))
        seen = set()
        for col in self.columns:
            if col.kind not in (NUMERIC, CATEGORICAL, LABEL):
                raise SchemaError("column %r has unknown kind %r" % (col.name, col.kind))
            if col.name in seen:
                raise SchemaError("duplicate column name %r" % col.name)
            seen.add(col.name)
            if col.kind == CATEGORICAL:
                if not col.values:
                    raise SchemaError("categorical column %r has no values" % col.name)
                if len(set(col.values)) != len(col.values):
                    raise SchemaError("categorical column %r has duplicate values" % col.name)
                if list(col.values) != sorted(col.values):
                    raise SchemaError("categorical column %r values must be sorted" % col.name)

    @property
    def n_attrs(self):
        """Width of the encoded feature vector."""
        d = 0
        for col in self.columns:
            if col.kind == NUMERIC:
                d += 1
            elif col.kind == CATEGORICAL:
                d += len(col.values)
        return d

    def attr_names(self):
        """Encoded attribute names, e.g. 'age' or 'workclass=Private'."""
        names = []
        for col in self.columns:
            if col.kind == NUMERIC:
                names.append(col.name)
            elif col.kind == CATEGORICAL:
                names.extend("%s=%s" % (col.name, v) for v in col.values)
        return names

    def encode_row(self, raw, line_no=0):
        """Encode one raw CSV row into (features, label).

        Parameters
        ----------
        raw : list of str
            Cell strings, one per schema column, in schema order.
        line_no : int
            1-based source line for error messages.

        Returns
        -------
        features : ndarray of float64, shape (n_attrs,)
        label : int
            1 if the label cell equals positive_label, else 0.
        """
        if len(raw) != len(self.columns):
            raise ParseError("line %d: expected %d fields, got %d"
                             % (line_no, len(self.columns), len(raw)))
        x = np.zeros(self.n_attrs)
        label = None
        j = 0
        for col, cell in zip(self.columns, raw):
            cell = cell.strip()
            if col.kind == NUMERIC:
                try:
                    x[j] = float(cell)
                except ValueError:
                    raise ParseError("line %d: column %r: %r is not numeric"
                                     % (line_no, col.name, cell)) from None
                if not math.isfinite(x[j]):
                    raise ParseError("line %d: column %r: %r is not finite"
                                     % (line_no, col.name, cell))
                j += 1
            elif col.kind == CATEGORICAL:
                try:
                    k = col.values.index(cell)
                except ValueError:
                    raise SchemaError("line %d: column %r: unknown value %r"
                                      % (line_no, col.name, cell)) from None
                x[j + k] = 1.0
                j += len(col.values)
            else:
                if not cell:
                    raise SchemaError("line %d: empty label" % line_no)
                label = 1 if cell == self.positive_label else 0
        return x, label

    def to_dict(self):
        cols = []
        for col in self.columns:
            entry = {"name": col.name, "kind": col.kind}
            if col.kind == CATEGORICAL:
                entry["values"] = list(col.values)
            cols.append(entry)
        return {"positive_label": self.positive_label, "columns": cols}

    @classmethod
    def from_dict(cls, obj):
        try:
            cols = tuple(
                Column(c["name"], c["kind"], tuple(sorted(c.get("values", []))))
                for c in obj["columns"]
            )
            return cls(cols, str(obj["positive_label"]))
        except (KeyError, TypeError) as e:
            raise SchemaError("bad schema document: %s" % e) from None


def load_schema(path):
    """Read a Schema from a JSON sidecar file."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError("%s: not valid JSON (%s)" % (path, e)) from None
    return Schema.from_dict(obj)


def save_schema(schema, path):
    with open(path, "w") as f:
        json.dump(schema.to_dict(), f, indent=2)
        f.write("\n")


class Dataset:
    """Encoded samples addressed by stable integer id.

    Ids are assigned 0, 1, 2, ... in insertion order and never reused.
    Deletion tombstones the row: its storage slot stays allocated, but its
    features and label are zeroed.  Rows must have finite features and 0/1
    labels.
    """

    def __init__(self, n_attrs, schema=None, capacity=1024):
        if n_attrs <= 0:
            raise ValueError("n_attrs must be positive")
        self.schema = schema
        self.n_attrs = int(n_attrs)
        cap = max(int(capacity), 16)
        self._X = np.zeros((cap, self.n_attrs))
        self._y = np.zeros(cap, np.int8)
        self._live = np.zeros(cap, bool)
        self._next_id = 0
        self._n_live = 0
        self._n_pos = 0

    # -- storage ------------------------------------------------------

    def _grow(self, need):
        cap = len(self._y)
        if need <= cap:
            return
        new_cap = max(need, cap * 2)
        for name in ("_X", "_y", "_live"):
            old = getattr(self, name)
            shape = (new_cap,) + old.shape[1:]
            buf = np.zeros(shape, old.dtype)
            buf[:cap] = old
            setattr(self, name, buf)

    @property
    def X(self):
        """Feature matrix view over all allocated rows (live and dead).

        Do not cache across mutations: adds may reallocate the buffer.
        """
        return self._X[: self._next_id]

    @property
    def y(self):
        return self._y[: self._next_id]

    # -- stats --------------------------------------------------------

    @property
    def n_live(self):
        return self._n_live

    @property
    def n_pos(self):
        """Number of live positive samples."""
        return self._n_pos

    @property
    def next_id(self):
        return self._next_id

    # -- access -------------------------------------------------------

    def is_live(self, sample_id):
        return 0 <= sample_id < self._next_id and bool(self._live[sample_id])

    def _check_live(self, sample_id):
        if not self.is_live(sample_id):
            raise KeyError("sample id %d is %s" % (
                sample_id, "dead" if 0 <= sample_id < self._next_id else "unknown"))

    def features(self, sample_id):
        self._check_live(sample_id)
        return self._X[sample_id]

    def label(self, sample_id):
        self._check_live(sample_id)
        return int(self._y[sample_id])

    def live_ids(self):
        return np.flatnonzero(self._live[: self._next_id]).astype(np.int64)

    # -- mutation -----------------------------------------------------

    def add(self, features, label):
        """Append a sample; returns its new id."""
        return int(self.add_many([features], [label])[0])

    def add_many(self, X, y):
        """Append a block of samples; returns their new ids.

        The whole block is validated before any row is stored.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[1] != self.n_attrs:
            raise ValueError("expected %d features, got shape %s" % (self.n_attrs, X.shape[1:]))
        if y.shape != (len(X),):
            raise ValueError("expected %d labels, got shape %s" % (len(X), y.shape))
        if not np.isfinite(X).all():
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
            raise ValueError("features must be finite, row %d is not" % bad)
        ok = (y == 0) | (y == 1)
        if not ok.all():
            raise ValueError("label must be 0 or 1, got %r" % (y.tolist()[np.argmin(ok)],))
        lo = self._next_id
        self._grow(lo + len(X))
        self._X[lo:lo + len(X)] = X
        self._y[lo:lo + len(X)] = y
        self._live[lo:lo + len(X)] = True
        self._next_id = lo + len(X)
        self._n_live += len(X)
        self._n_pos += int(np.count_nonzero(y))
        return np.arange(lo, self._next_id, dtype=np.int64)

    def tombstone(self, sample_id):
        """Mark a live sample dead and zero its row, so that its features
        and label leave memory.  The id is never reused."""
        self.tombstone_many([sample_id])

    def tombstone_many(self, ids):
        """Tombstone distinct live ids as tombstone() does one, zeroing
        their rows in one assignment.

        Every id is checked before any row changes.
        """
        ids = np.asarray(ids, dtype=np.int64)
        for sample_id in ids.tolist():
            self._check_live(sample_id)
        if len(np.unique(ids)) != len(ids):
            raise KeyError("ids to tombstone must be distinct")
        self._live[ids] = False
        self._n_live -= len(ids)
        self._n_pos -= int(np.count_nonzero(self._y[ids]))
        self._X[ids] = 0.0
        self._y[ids] = 0


def load_csv(path, schema):
    """Load a headered CSV file into a Dataset.

    The header must list exactly the schema's column names in schema order.
    Raises ParseError / SchemaError naming the offending line on bad input.
    """
    ds = Dataset(schema.n_attrs, schema=schema)
    expect = [c.name for c in schema.columns]
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("%s: empty file" % path) from None
        if [h.strip() for h in header] != expect:
            raise SchemaError("%s: header %r does not match schema columns %r"
                              % (path, header, expect))
        rows, labels = [], []
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue  # blank line
            x, label = schema.encode_row(raw, line_no=line_no)
            rows.append(x)
            labels.append(label)
    ds.add_many(np.reshape(rows, (len(rows), schema.n_attrs)), labels)
    return ds


def dataset_from_arrays(X, y, schema=None):
    """Build a Dataset directly from encoded arrays (ids 0..n-1)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-d with one row per label")
    ds = Dataset(X.shape[1], schema=schema, capacity=len(X))
    ds.add_many(X, y)
    return ds


def train_test_split(ds, test_fraction, seed):
    """Deterministically split live rows into two fresh Datasets.

    Rows are shuffled by a generator seeded with `seed`; the first
    round(n * test_fraction) go to the test set.  Both outputs reassign
    ids from zero.

    Returns
    -------
    (train, test) : tuple of Dataset
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must be in [0, 1]")
    ids = ds.live_ids()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    n_test = int(round(len(ids) * test_fraction))
    test_ids = ids[perm[:n_test]]
    train_ids = ids[perm[n_test:]]

    def take(chosen):
        out = Dataset(ds.n_attrs, schema=ds.schema, capacity=max(len(chosen), 16))
        out.add_many(ds.X[chosen], ds.y[chosen])
        return out

    return take(train_ids), take(test_ids)
