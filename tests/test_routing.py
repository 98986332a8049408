"""Query routing and query-grown nodes.

route_rows walks the (tree, row) pairs of all trees a depth at a time and
grows every tagged node reached in one materialize() step per round; it
must leave the same counts, trees and counters as route_row one row at a
time.  A materialized node must read exactly its own key's words.
Tree.query and Tree.query_many check their rows as Forest.predict and
Forest.predict_many do.
"""

from __future__ import annotations

import numpy as np
import pytest

from dynforest import tree as tree_mod
from dynforest.data import dataset_from_arrays
from dynforest.forest import Forest
from dynforest.oracle import forest_audit, splitmix_uniforms, splitmix_word
from dynforest.snapshot import load, save
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams, build_tree, materialize, route_row, route_rows
from test_forest import quick_params
from test_tree import grid, signature


@pytest.fixture(scope="module")
def pending(tmp_path_factory):
    """A saved forest with tags pending in several trees.  A lazy batch
    deletes every sample of the last tree, whose root is then tagged with
    no ids, and a quarter of the others; a query grows that root into an
    empty leaf."""
    ds = make_dataset(900, d=6, seed=31)
    forest = Forest.train(ds, quick_params(n_trees=8, occupancy=0.5, seed=31))
    last = forest.trees[-1].root.ids
    rest = np.setdiff1d(ds.live_ids(), last)
    forest.unlearn_batch(np.concatenate((last, rest[::4])).tolist())
    assert forest.trees[-1].root.tagged and not len(forest.trees[-1].root.ids)
    assert sum(tree.n_tagged > 0 for tree in forest.trees) >= 3
    path = tmp_path_factory.mktemp("routing") / "pending.bin"
    save(forest, path)
    return path


def spy_on_rounds(monkeypatch):
    """Record, per materialize call, whether it grew a node whose stop rule
    holds (which stays a leaf)."""
    stopped = []

    def spy(reached):
        stopped.append(any(tree._stop(node.depth, len(node.ids), node.n_pos)
                           for tree, node in reached))
        return materialize(reached)

    monkeypatch.setattr(tree_mod, "materialize", spy)
    return stopped


@pytest.mark.parametrize("case", ["forest", "one tree", "no rows"])
def test_route_rows_equals_route_row_row_by_row(pending, monkeypatch, case):
    path = pending
    batch, by_row = load(path), load(path)
    held = make_dataset(60, d=6, seed=32).X[:60]
    X = np.vstack((held, held[:7]))  # duplicate rows
    if case == "no rows":
        X = X[:0]
    picked = slice(-1, None) if case == "one tree" else slice(None)
    stopped = spy_on_rounds(monkeypatch)
    n, n_pos = route_rows(batch.trees[picked], X)
    monkeypatch.undo()
    trees = by_row.trees[picked]
    want = np.array([[(len(leaf.ids), leaf.n_pos) for leaf in route_row(trees, x)]
                     for x in X.tolist()], np.int64).reshape(len(X), len(trees), 2)
    assert n.shape == n_pos.shape == (len(trees), len(X))
    assert n.dtype == n_pos.dtype == np.int64
    assert n.tobytes() == np.ascontiguousarray(want[:, :, 0].T).tobytes()
    assert n_pos.tobytes() == np.ascontiguousarray(want[:, :, 1].T).tobytes()
    if case == "no rows":
        assert not stopped and batch.tagged_count() == load(path).tagged_count()
    else:
        # the last tree's root grew into an empty leaf, its stop rule holding
        assert stopped[0] and (n[-1] == 0).all()
    if case == "forest":
        assert len(stopped) > 1 and (n[:-1] > 0).all()
    for a, b in zip(batch.trees, by_row.trees):
        assert signature(a) == signature(b)
        assert a.n_tagged == b.n_tagged
        assert a.telemetry.as_dict() == b.telemetry.as_dict()
    report = forest_audit(batch)
    assert report.ok, report.summary()


def test_a_materialized_node_reads_its_key_stream():
    """A query-grown node's attributes are the p smallest of the uniforms
    of words 0 to d - 1 of its key (oracle.splitmix_word), its thresholds
    the next s per slot, scaled onto the slot's range and sorted (a flat
    slot holds its value), and its children's keys the two words after
    them; the grown node keeps no key."""
    ds = make_dataset(700, d=8, seed=14)
    ds.X[:, 5] = 0.25  # a constant attribute: its slots are flat
    forest = Forest.train(ds, quick_params(n_trees=6, occupancy=0.5, seed=14))
    forest.unlearn_batch(list(range(0, 350, 3)))
    kernel = forest.trees[0]
    d, p, s = kernel.d, kernel.p, kernel.s
    reached = [(tree, node) for tree in forest.trees for node in tagged_nodes(tree)
               if not tree._stop(node.depth, len(node.ids), node.n_pos)]
    keys = [node.key for _, node in reached]
    assert len(reached) > 4
    materialize(reached)
    split = flat = 0
    for (tree, node), key in zip(reached, keys):
        u = splitmix_uniforms(key, 0, d + p * s)
        assert node.key is None
        attrs = np.sort(np.argsort(u[:d])[:p])
        blk = grid(tree, node)
        assert blk.attrs.tolist() == attrs.tolist()
        vals = ds.X[node.ids][:, attrs]
        lo, hi = vals.min(axis=0), vals.max(axis=0)
        thr = np.array([np.full(s, lo[k]) if lo[k] == hi[k]
                        else np.sort(lo[k] + (hi[k] - lo[k]) * u[d + k * s:d + (k + 1) * s])
                        for k in range(p)])
        assert blk.thr.tobytes() == thr.tobytes()
        flat += int((lo == hi).sum())
        if node.left is not None:
            split += 1
            assert node.left.tagged and node.right.tagged
            assert [node.left.key, node.right.key] == [splitmix_word(key, d + p * s + i)
                                                       for i in (0, 1)]
    assert split > 4 and flat > 0
    assert forest_audit(forest).ok


def tagged_nodes(tree):
    stack, out = [tree.root], []
    while stack:
        node = stack.pop()
        if node.tagged:
            out.append(node)
        elif node.left is not None:
            stack.extend((node.right, node.left))
    return out


BAD_ROWS = [
    ("query", [0.1, 0.2, 0.3, 0.4, 0.5], "expected 4 features, got shape (5,)"),
    ("query", [[0.1, 0.2, 0.3, 0.4]], "expected 4 features, got shape (1, 4)"),
    ("query", [0.1, np.nan, 0.3, 0.4], "features must be finite, row 0 is not"),
    ("query", [0.1, 0.2, np.inf, 0.4], "features must be finite, row 0 is not"),
    ("query_many", [0.1, 0.2, 0.3, 0.4], "expected (m, 4) matrix, got shape (4,)"),
    ("query_many", np.zeros((3, 5)), "expected (m, 4) matrix, got shape (3, 5)"),
    ("query_many", np.zeros((2, 3, 4)), "expected (m, 4) matrix, got shape (2, 3, 4)"),
    ("query_many", [[0.0] * 4, [0.0] * 4, [0.0, -np.inf, 0.0, 0.0]],
     "features must be finite, row 2 is not"),
]


@pytest.mark.parametrize("method, row, message", BAD_ROWS)
def test_tree_queries_reject_bad_rows_as_forest_predicts_do(method, row, message):
    ds = make_dataset(200, d=5, seed=5)
    ds = dataset_from_arrays(ds.X[:200, :4], ds.y[:200])
    tree = build_tree(ds, ds.live_ids(), TreeParams(max_depth=4, n_thresholds=5))
    forest = Forest.train(ds, quick_params(n_trees=2, seed=5))
    before = signature(tree)
    with pytest.raises(ValueError) as tree_error:
        getattr(tree, method)(row)
    predict = forest.predict if method == "query" else forest.predict_many
    with pytest.raises(ValueError) as forest_error:
        predict(row)
    assert str(tree_error.value) == str(forest_error.value) == message
    assert signature(tree) == before
