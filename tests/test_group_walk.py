"""Grouped deletion: the level-synchronous walk of tree.delete_groups.

Forest.unlearn_batch deletes each tree's share of a batch in one walk over
all trees, a level at a time.  Its references are the same walk one tree
at a time (Tree.delete_group), the depth-first reference walk of
oracle.py, which reads every draw at the same word of the same key, and,
for a group of one, Tree.delete: all bit for bit.  tests/test_exactness.py
compares the level walk with the reference walk in law as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from dynforest import criterion as crit
from dynforest import tree as tree_mod
from dynforest.forest import Forest, group_by_tree
from dynforest.oracle import (forest_audit, reference_delete_group, splitmix_uniforms,
                              splitmix_word)
from dynforest.snapshot import load, save
from dynforest.data import dataset_from_arrays
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams, build_tree, delete_groups
from test_forest import quick_params
from test_tree import grid, preorder
from test_updates import forest_state, node_state, regrow, tagged_snapshot


def batch_of(forest, size, seed):
    return np.random.default_rng(seed).choice(forest.ds.live_ids(), size, replace=False)


def saved(forest, path):
    save(forest, path)
    return path.read_bytes()


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
@pytest.mark.parametrize("seed,criterion", [(0, "gini"), (1, "entropy")])
def test_unlearn_batch_equals_tree_by_tree_delete_group(tmp_path, lazy, seed, criterion):
    path = tagged_snapshot(tmp_path / "tagged.bin", seed, criterion)
    together, by_tree = load(path), load(path)
    together.lazy = by_tree.lazy = lazy
    batch = batch_of(together, 120, seed)
    together.unlearn_batch(batch.tolist())
    groups = group_by_tree(batch, by_tree.assignment[batch], len(by_tree.trees))
    for tree, group in zip(by_tree.trees, groups):
        tagged = tree.delete_group(group)
        if not lazy:
            regrow(tree, tagged)
    by_tree.assignment[batch] = -1
    by_tree.ds.tombstone_many(batch)
    assert together.telemetry().tags_moved > 0
    assert forest_state(together) == forest_state(by_tree)
    assert saved(together, tmp_path / "a.bin") == saved(by_tree, tmp_path / "b.bin")
    assert forest_audit(together).ok


def test_chunked_group_walk_equals_one_chunk(tmp_path, monkeypatch):
    path = tagged_snapshot(tmp_path / "tagged.bin", 9, "gini")
    whole, chunked = load(path), load(path)
    batch = batch_of(whole, 150, 9).tolist()
    whole.unlearn_batch(batch)
    chunks = []
    patch_chunk = tree_mod._patch_chunk

    def spy(kernel, rows, *args):
        chunks.append(len(rows))
        return patch_chunk(kernel, rows, *args)

    monkeypatch.setattr(tree_mod, "CHUNK_ROWS", 1)
    monkeypatch.setattr(tree_mod, "_patch_chunk", spy)
    chunked.unlearn_batch(batch)
    monkeypatch.undo()
    # every grid was patched in a chunk of its own
    assert set(chunks) == {1} and len(chunks) > len(whole.trees)
    assert forest_state(whole) == forest_state(chunked)
    assert saved(whole, tmp_path / "a.bin") == saved(chunked, tmp_path / "b.bin")


def test_a_group_of_one_is_the_reference_walk_and_delete():
    ds = [make_dataset(300, d=6, seed=5) for _ in range(3)]
    params = quick_params(n_trees=1, occupancy=1.0, seed=4)
    walks = [Forest.train(d, params).trees[0] for d in ds]
    for sid in (5, 17, 40, 99, 150, 151):
        walks[0].delete_group([sid])
        reference_delete_group(walks[1], [sid])
        walks[2].delete(sid)
    a, b, c = ((node_state(tree), tree.telemetry.as_dict()) for tree in walks)
    assert a == b == c
    assert sum(tree.n_tagged for tree in walks) > 0


def test_a_deletion_that_flattens_a_slot_redraws_it_in_every_walk():
    """Deleting the one sample off a constant column's value leaves that
    attribute's slots a single value.  Such a slot's range changed, so it
    reads its s uniforms like any redrawn slot and holds its value:
    Tree.delete, a one-id delete_group and the reference walk agree bit for
    bit.  Each reads the call word of deleting id 0, word 2 of the tree's
    key, whatever it redraws: each redrawn slot k of a path node holds the
    thresholds of that word's words b + k*s onward, b the node's block, and
    a node it tagged, if any, holds word b + p*s as its key."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(150, 3))
    X[:, 0] = 0.0
    X[0, 0] = 1.0
    y = rng.integers(0, 2, size=150)
    params = TreeParams(max_depth=4, n_thresholds=5, n_attrs=3, min_split_size=4)
    walks = [build_tree(dataset_from_arrays(X.copy(), y.copy()), np.arange(150), params,
                        key=2) for _ in range(3)]
    walks[0].delete(0)
    walks[1].delete_group([0])
    reference_delete_group(walks[2], [0])
    a, b, c = ((node_state(tree), tree.telemetry.as_dict()) for tree in walks)
    assert a == b == c
    tree = walks[0]
    row, counts = tree.root.row, tree.telemetry
    # attribute 0 is slot 0 of every grid, and its range at the root is now 0
    assert tree.pool.amin[row, 0] == tree.pool.amax[row, 0] == 0.0
    assert (tree.pool.thr[row, 0] == 0.0).all()
    assert counts.attrs_resampled > 0
    word = splitmix_word(2, 2)
    p_s = tree.p * tree.s
    tagged = [node for node in preorder(tree.root) if node.tagged]
    assert [node.key for node in tagged] == [
        splitmix_word(word, (node.depth << 32) * (p_s + 1) + p_s) for node in tagged]
    # the slots on row 0's path that hold their keyed redraw are the redrawn ones
    node, redrawn = tree.root, 0
    while node is not None:
        blk = grid(tree, node)
        for k in range(tree.p if blk is not None else 0):
            u = splitmix_uniforms(word, (node.depth << 32) * (p_s + 1) + k * tree.s, tree.s)
            thr = np.sort(blk.amin[k] + (blk.amax[k] - blk.amin[k]) * u)
            redrawn += blk.thr[k].tobytes() == thr.tobytes()
        node = (None if node.left is None
                else node.left if X[0, node.axis] <= node.best_w else node.right)
    assert redrawn == counts.attrs_resampled


def test_a_missing_id_at_one_root_changes_no_tree(tmp_path):
    path = tagged_snapshot(tmp_path / "tagged.bin", 3, "gini")
    forest = load(path)
    before = saved(forest, tmp_path / "before.bin")
    first, second = forest.trees[0], forest.trees[1]
    absent = next(int(i) for i in forest.ds.live_ids() if int(i) not in set(second.root.ids))
    pairs = [(first, first.root.ids[:50]), (second, [int(second.root.ids[0]), absent])]
    with pytest.raises(ValueError, match="1 of 2 ids not present at depth 0"):
        delete_groups(pairs)
    assert saved(forest, tmp_path / "after.bin") == before
    assert forest_audit(forest).ok


def test_eager_batch_grows_its_tags_in_one_grow(monkeypatch):
    ds = make_dataset(1500, d=8, seed=6)
    params = quick_params(n_trees=16, occupancy=0.5, seed=6)
    forest = Forest.train(ds, params, lazy=False)
    calls = []
    split_level = tree_mod._split_level

    def spy(pairs, cap):
        calls.append(len(pairs))
        return split_level(pairs, cap)

    monkeypatch.setattr(tree_mod, "_split_level", spy)
    forest.unlearn_batch(batch_of(forest, 300, 6).tolist())
    assert forest.telemetry().subtree_samples_rebuilt > 0
    assert 0 < len(calls) <= params.tree.max_depth + 1
    assert forest.tagged_count() == 0 and forest_audit(forest).ok


def test_a_batch_scores_each_level_in_one_call(monkeypatch):
    ds = make_dataset(2000, d=8, seed=7)
    params = quick_params(n_trees=32, occupancy=0.5, seed=7)
    forest = Forest.train(ds, params)
    calls = [0]
    score_matrix = crit.score_matrix

    def spy(*args, **kwargs):
        calls[0] += 1
        return score_matrix(*args, **kwargs)

    monkeypatch.setattr(crit, "score_matrix", spy)
    forest.unlearn_batch(batch_of(forest, 400, 7).tolist())
    assert forest.telemetry().nodes_updated > 10 * (params.tree.max_depth + 1)
    assert 0 < calls[0] <= params.tree.max_depth + 1


def test_tags_come_depth_by_depth_left_to_right():
    ds = make_dataset(1200, d=8, seed=8)
    tree = Forest.train(ds, quick_params(n_trees=1, occupancy=1.0, seed=8)).trees[0]
    tagged = tree.delete_group(np.random.default_rng(8).choice(ds.live_ids(), 40, replace=False))
    place, level = {}, [tree.root]
    while level:
        place.update((id(node), len(place)) for node in level)
        level = [child for node in level if node.left is not None
                 for child in (node.left, node.right)]
    order = [place[id(node)] for node in tagged]
    assert len({node.depth for node in tagged}) > 1 and order == sorted(order)


@pytest.mark.parametrize("seed", [0, 1])
def test_the_level_walk_is_the_reference_walk_for_any_group(tmp_path, seed):
    """delete_groups over every tree at once leaves each tree and its
    counters as oracle.reference_delete_group leaves them, batch after
    batch of random groups of many ids."""
    path = tagged_snapshot(tmp_path / "tagged.bin", seed, "gini")
    level, reference = load(path), load(path)
    rng = np.random.default_rng(seed)
    live = level.ds.live_ids()
    for size in (6, 40, 120):
        batch = rng.choice(live, size, replace=False)
        live = np.setdiff1d(live, batch)
        groups = group_by_tree(batch, level.assignment[batch], len(level.trees))
        assert max(len(group) for group in groups) > 1
        delete_groups(list(zip(level.trees, groups)))
        for tree, group in zip(reference.trees, groups):
            reference_delete_group(tree, group)
        for a, b in zip(level.trees, reference.trees):
            assert node_state(a) == node_state(b)
            assert a.telemetry.as_dict() == b.telemetry.as_dict()
    telemetry = level.telemetry()
    assert telemetry.tags_moved > 0 and telemetry.attrs_resampled > 0
