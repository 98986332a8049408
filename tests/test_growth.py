"""Growth across trees: Forest.train, Forest.flush and an eager forest's
updates grow the fresh nodes of all trees together (tree.grow), one
split-kernel call per frontier step.  Their references grow the same nodes
one tree at a time: build_tree, Tree.flush and one tree's regrowth of the
nodes an update tagged.  Each node draws from its own key either way, so
all must leave every node and every counter the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from dynforest import forest as forest_mod
from dynforest import tree as tree_mod
from dynforest.forest import Forest, group_by_tree
from dynforest.oracle import forest_audit, splitmix_word
from dynforest.snapshot import load, save
from dynforest.synth import make_dataset
from dynforest.tree import build_tree
from test_forest import quick_params, spy_on_growth
from test_tree import preorder, signature
from test_updates import (TreeByTree, apply, forest_state, node_state, random_updates,
                          tagged_snapshot, twins)


def spy_on_chunks(monkeypatch):
    """Record the trees of each kernel chunk, in order."""
    chunks = []
    split_chunk = tree_mod._split_chunk

    def spy(kernel, splitting, *args):
        chunks.append([tree for tree, _ in splitting])
        return split_chunk(kernel, splitting, *args)

    monkeypatch.setattr(tree_mod, "_split_chunk", spy)
    return chunks


def cut_trees(chunks):
    """Whether some tree's frontier was split between two chunks."""
    return any(a[-1] is b[0] for a, b in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("chunk_rows", [None, 1], ids=["one-chunk", "chunked"])
def test_train_grows_each_tree_as_build_tree_does(monkeypatch, chunk_rows):
    ds = make_dataset(1200, d=8, seed=5)
    params = quick_params(n_trees=10, occupancy=0.5, seed=17)
    if chunk_rows is not None:
        # chunks of at most the largest root's rows
        monkeypatch.setattr(tree_mod, "CHUNK_ROWS", chunk_rows)
    calls, _ = spy_on_growth(monkeypatch)
    chunks = spy_on_chunks(monkeypatch)
    forest = Forest.train(ds, params)
    monkeypatch.undo()
    # the roots together outgrow one run: a call counted in several
    assert max(len(call) for call in calls) > 1
    assert cut_trees(chunks) == (chunk_rows is not None)
    live = ds.live_ids()
    per_tree = group_by_tree(live, forest.assignment[live], params.n_trees)
    for t, tree in enumerate(forest.trees):
        # tree t's key is word t of the seed
        alone = build_tree(ds, per_tree[t], params.tree, key=splitmix_word(params.seed, t))
        assert signature(tree) == signature(alone)
        assert tree.key == alone.key
    assert forest_audit(forest).ok


def test_flush_grows_each_tree_as_its_own_flush_does(tmp_path):
    path = tagged_snapshot(tmp_path / "tagged.bin", 5, "gini")
    together, by_tree = load(path), load(path)
    together.flush()
    for tree in by_tree.trees:
        tree.flush()
    assert together.telemetry().subtree_samples_rebuilt > 0
    assert together.telemetry() == by_tree.telemetry()
    assert [t.n_tagged for t in together.trees] == [t.n_tagged for t in by_tree.trees]
    assert together.tagged_count() == 0
    save(together, tmp_path / "together.bin")
    save(by_tree, tmp_path / "by_tree.bin")
    assert (tmp_path / "together.bin").read_bytes() == (tmp_path / "by_tree.bin").read_bytes()
    assert forest_state(together) == forest_state(by_tree)
    assert forest_audit(together).ok


def test_eager_updates_regrow_each_tree_as_its_own_regrowth_does(tmp_path, monkeypatch):
    path = tagged_snapshot(tmp_path / "tagged.bin", 6, "gini")
    together, by_tree = twins(path, False, TreeByTree)
    # an eager forest keeps no tags: a walk that ends at a pending one
    # cannot tag
    together.flush()
    by_tree.flush()
    sizes = []
    grow = forest_mod.grow

    def spy_grow(frontiers):
        sizes.append(sum(1 for _, nodes in frontiers if nodes))
        return grow(frontiers)

    monkeypatch.setattr(forest_mod, "grow", spy_grow)
    rng = np.random.default_rng(8)
    for op, arg in random_updates(together, rng, 80):
        apply(together, op, arg)
        apply(by_tree, op, arg)
        assert forest_state(together) == forest_state(by_tree), (op, arg)
    # some update tagged several of its trees, which then grew together
    assert max(sizes) > 1
    assert forest_audit(together).ok


@pytest.mark.parametrize("n_trees", [1, 4, 16])
def test_train_and_flush_make_one_kernel_call_per_level(monkeypatch, n_trees):
    ds = make_dataset(800, d=6, seed=9)
    params = quick_params(n_trees=n_trees, occupancy=0.5, seed=4)
    calls, _ = spy_on_growth(monkeypatch)
    forest = Forest.train(ds, params)
    assert 0 < len(calls) <= params.tree.max_depth + 1
    forest.unlearn_batch(list(range(0, 400, 4)))
    assert forest.tagged_count() > 0
    del calls[:]
    forest.flush()
    assert 0 < len(calls) <= params.tree.max_depth + 1
    assert forest.tagged_count() == 0


def test_chunked_query_growth_equals_one_chunk(tmp_path, monkeypatch):
    path = tagged_snapshot(tmp_path / "tagged.bin", 7, "gini")
    whole, chunked = load(path), load(path)
    X = make_dataset(120, d=6, seed=71).X[:120]
    want = whole.predict_many(X)
    monkeypatch.setattr(tree_mod, "CHUNK_ROWS", 1)
    chunks = spy_on_chunks(monkeypatch)
    got = chunked.predict_many(X)
    monkeypatch.undo()
    assert cut_trees(chunks)
    assert got.tobytes() == want.tobytes()
    chunked.flush()
    whole.flush()
    assert chunked.telemetry() == whole.telemetry()
    save(whole, tmp_path / "whole.bin")
    save(chunked, tmp_path / "chunked.bin")
    assert (tmp_path / "whole.bin").read_bytes() == (tmp_path / "chunked.bin").read_bytes()


def test_tagged_predict_many_makes_one_kernel_call_per_round(monkeypatch):
    ds = make_dataset(1200, d=8, seed=6)
    forest = Forest.train(ds, quick_params(n_trees=12, occupancy=0.5, seed=6))
    forest.unlearn_batch(list(range(0, 240, 2)))
    assert forest.tagged_count() > 0
    calls, rounds = spy_on_growth(monkeypatch)
    forest.predict_many(make_dataset(150, d=8, seed=61).X[:150])
    assert len(rounds) > 1
    assert len(calls) == len(rounds)


def reaching_rows(forest):
    """Rows that reach every tagged node with ids: each such node's own
    rows, which the splits above it send there."""
    tagged = [node for tree in forest.trees for node in preorder(tree.root)
              if node.tagged and node.n]
    return tagged, forest.ds.X[np.concatenate([node.ids for node in tagged])]


def test_query_growth_then_flush_saves_what_flush_alone_saves(tmp_path):
    """A tagged subtree is a function of its key and its data: grown by
    queries a level a round and then flushed, it is the flushed one."""
    path = tagged_snapshot(tmp_path / "tagged.bin", 8, "gini")
    queried, flushed = load(path), load(path)
    tagged, rows = reaching_rows(queried)
    assert len(tagged) > 3
    queried.predict_many(rows)
    assert not any(node.tagged for node in tagged)
    queried.flush()
    flushed.flush()
    save(queried, tmp_path / "queried.bin")
    save(flushed, tmp_path / "flushed.bin")
    assert (tmp_path / "queried.bin").read_bytes() == (tmp_path / "flushed.bin").read_bytes()


def test_an_eager_update_grows_what_a_lazy_one_grows_on_flush(tmp_path):
    """An eager forest after one delete or add holds the nodes of a lazy
    forest after the same update and flush(), and after the same update,
    queries that reach every node it tagged, and flush()."""
    path = tagged_snapshot(tmp_path / "tagged.bin", 9, "gini")
    clean = load(path)
    clean.flush()
    save(clean, tmp_path / "clean.bin")
    probe = make_dataset(20, d=6, seed=91).X
    tags = 0
    for op, arg in [("delete", 3), ("add", (probe[0], 1)), ("delete", 250), ("delete", 101),
                    ("add", (probe[1] * 1.2, 0)), ("delete", 77)]:
        eager, lazy, queried = (load(tmp_path / "clean.bin") for _ in range(3))
        eager.lazy = False
        for forest in (eager, lazy, queried):
            apply(forest, op, arg)
        tags += lazy.tagged_count()
        if queried.tagged_count():
            queried.predict_many(reaching_rows(queried)[1])
        lazy.flush()
        queried.flush()
        want = [node_state(tree) for tree in eager.trees]
        for forest in (lazy, queried):
            assert [node_state(tree) for tree in forest.trees] == want, (op, arg)
    assert tags > 1
