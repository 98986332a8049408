"""Single-sample updates: the stacked path walk against its references.

Forest.delete and Forest.add walk all k trees of a sample in one stacked
pass (tree.update_paths).  Its references are the same walk one tree at a
time (Tree.delete and Tree.add), the group walk for deletes
(Tree.delete_group on a group of one) and, for adds, the per-node add walk
that the stacked walk replaced, kept below as per_node_add.  All must
leave every node, every generator and every counter the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from dynforest import criterion as crit
from dynforest.data import dataset_from_arrays
from dynforest.forest import Forest, ForestParams
from dynforest.oracle import forest_audit
from dynforest.snapshot import load, save
from dynforest.synth import make_dataset
from dynforest.tree import Tree, TreeParams
from test_forest import quick_params


class TreeByTree(Forest):
    """A forest that sends each single-sample update to its trees one at a
    time, through Tree.delete and Tree.add."""

    def _update(self, tree_ids, sample_id, add):
        for t in tree_ids:
            tree = self.trees[t]
            tagged = tree.add(sample_id) if add else tree.delete(sample_id)
            if tagged is not None and not self.lazy:
                tree.rebuild_node(tagged)


def per_node_add(tree, sample_id):
    """Add a sample one node at a time, top down: patch the node's counts,
    widen and redraw its ranges, rescore it, and tag it or go on.  This is
    the walk the stacked one replaced, kept as an independent reference;
    returns the node it tagged, or None."""
    x = tree.ds.X[sample_id]
    label = int(tree.ds.y[sample_id])
    node = tree.root
    while True:
        node.ids = np.append(node.ids, sample_id)
        node.n_pos += label
        tree.telemetry.nodes_updated += 1
        blk = node.slots
        if blk is not None:
            covered = blk.thr >= x[blk.attrs][:, None]
            blk.b[covered] += 1
            if label:
                blk.c[covered] += 1
        if node.tagged:
            return None
        if blk is None:
            # slotless leaf: tag once every stop criterion has lifted
            stop = tree._stop(node.depth, node.n, node.n_pos)
            return None if stop else tree._tag(node, "tags_stopped")
        xs = x[blk.attrs]
        widened = (xs < blk.amin) | (xs > blk.amax)
        if node.left is None:
            # a grid leaf: every slot was constant until a value widens one
            if widened.any():
                return tree._tag(node, "tags_widened")
            tree._rescore(node)
            return None
        if widened.any():
            blk.amin[widened] = np.minimum(blk.amin[widened], xs[widened])
            blk.amax[widened] = np.maximum(blk.amax[widened], xs[widened])
            tree._resample_slots(node, widened)
        tree._rescore(node)
        k, i = np.unravel_index(np.argmin(blk.score), blk.score.shape)
        if (not np.isfinite(blk.score[k, i]) or (k, i) != (node.best_k, node.best_i)
                or blk.thr[k, i] != node.best_w):
            return tree._tag(node, "tags_moved")
        node = node.left if x[blk.attrs[node.best_k]] <= node.best_w else node.right


class GroupWalk(TreeByTree):
    """Deletes through the group walk, a group of one per tree, and adds
    through per_node_add."""

    def _update(self, tree_ids, sample_id, add):
        for t in tree_ids:
            tree = self.trees[t]
            tagged = [per_node_add(tree, sample_id)] if add else tree.delete_group([sample_id])
            for node in tagged:
                if node is not None and not self.lazy:
                    tree.rebuild_node(node)


def node_state(tree):
    """Every node's links, counts, ids, key and full grid, in preorder, as
    bytes where the values are floats."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append((node.depth, node.ids.tobytes(), node.n_pos, node.best_k, node.best_i,
                    np.float64(node.best_w).tobytes(), node.axis, node.tagged,
                    node.key if node.tagged else None, node.left is None))
        blk = node.slots
        if blk is not None:
            out.append(tuple(a.tobytes() for a in (blk.attrs, blk.amin, blk.amax, blk.thr,
                                                   blk.b, blk.c, blk.score)))
        if node.left is not None:
            stack.extend((node.right, node.left))
    return out


def forest_state(forest):
    return ([node_state(tree) for tree in forest.trees],
            [tree.n_tagged for tree in forest.trees],
            [tree.telemetry.as_dict() for tree in forest.trees],
            [tree.rng.bit_generator.state for tree in forest.trees],
            forest.rng.bit_generator.state, forest.assignment.tobytes(),
            forest.ds.X.tobytes(), forest.ds.y.tobytes())


def tagged_snapshot(path, seed, criterion):
    """A saved forest with tags pending: trained, then a lazy batch and a
    few single deletes."""
    ds = make_dataset(400, d=6, seed=seed)
    forest = Forest.train(ds, quick_params(n_trees=8, occupancy=0.5, seed=seed,
                                           criterion=criterion))
    rng = np.random.default_rng(seed)
    doomed = rng.choice(400, 40, replace=False).tolist()
    forest.unlearn_batch(doomed[:30])
    for sid in doomed[30:]:
        forest.delete(sid)
    assert forest.tagged_count() > 0
    save(forest, path)
    return path


def twins(path, lazy, *classes):
    forests = []
    for cls in (Forest,) + classes:
        forest = load(path)
        forest.__class__ = cls
        forest.lazy = lazy
        forest.reset_telemetry()
        forests.append(forest)
    return forests


def random_updates(forest, rng, n):
    """n seeded deletes and adds, as (op, argument) pairs usable on twins."""
    probe = make_dataset(50, d=6, seed=99).X[:50]
    ops, live = [], set(forest.ds.live_ids().tolist())
    next_id = forest.ds.next_id
    for _ in range(n):
        if rng.random() < 0.6:
            sid = int(rng.choice(sorted(live)))
            live.discard(sid)
            ops.append(("delete", sid))
        else:
            x = probe[int(rng.integers(50))] * rng.uniform(0.9, 1.15)
            ops.append(("add", (x, int(rng.integers(2)))))
            live.add(next_id)
            next_id += 1
    return ops


def apply(forest, op, arg):
    if op == "delete":
        forest.delete(arg)
    else:
        forest.add(*arg)


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
@pytest.mark.parametrize("seed,criterion", [(0, "gini"), (1, "gini"), (2, "entropy")])
def test_stacked_walk_matches_tree_by_tree_and_group_walk(tmp_path, lazy, seed, criterion):
    path = tagged_snapshot(tmp_path / "tagged.bin", seed, criterion)
    stacked, by_tree, group = twins(path, lazy, TreeByTree, GroupWalk)
    rng = np.random.default_rng(100 + seed)
    tags = 0
    for op, arg in random_updates(stacked, rng, 60):
        before = stacked.tagged_count()
        for forest in (stacked, by_tree, group):
            apply(forest, op, arg)
        tags += stacked.tagged_count() != before
        want = forest_state(by_tree)
        assert forest_state(stacked) == want, (op, arg)
        assert forest_state(group) == want, (op, arg)
    # the sequence exercised tags and redraws, not just patches
    telemetry = stacked.telemetry()
    assert telemetry.attrs_resampled > 0 and telemetry.tags_moved > 0
    assert lazy is False or tags > 0
    assert forest_audit(stacked).ok


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
def test_adds_match_the_per_node_walk_where_ranges_widen(lazy):
    """Rows copied from a few prototypes, with mixed labels, leave many
    leaves whose grid is all constant slots; adds near the prototypes widen
    them and the ranges above them."""
    rng = np.random.default_rng(1)
    protos = rng.random((6, 5))
    X = protos[rng.integers(6, size=200)]
    y = rng.integers(2, size=200)
    params = ForestParams(n_trees=6, occupancy=0.5, seed=1,
                          tree=TreeParams(max_depth=10, n_thresholds=3, min_split_size=4,
                                          n_attrs=2))
    forests = []
    for cls in (Forest, TreeByTree, GroupWalk):
        forest = Forest.train(dataset_from_arrays(X.copy(), y), params, lazy=lazy)
        forest.__class__ = cls
        forests.append(forest)
    for _ in range(60):
        x = protos[int(rng.integers(6))] * np.where(rng.random(5) < 0.2, 1.1, 1.0)
        label = int(rng.integers(2))
        for forest in forests:
            forest.add(x, label)
        want = forest_state(forests[2])
        assert forest_state(forests[0]) == want
        assert forest_state(forests[1]) == want
    telemetry = forests[0].telemetry()
    assert telemetry.tags_widened > 0 and telemetry.tags_moved > 0
    assert telemetry.attrs_resampled > 0
    assert forest_audit(forests[0]).ok


def test_telemetry_sums_match_updates_one_tree_at_a_time(tmp_path):
    path = tagged_snapshot(tmp_path / "tagged.bin", 3, "gini")
    stacked, by_tree, group = twins(path, True, TreeByTree, GroupWalk)
    rng = np.random.default_rng(7)
    for op, arg in random_updates(stacked, rng, 40):
        for forest in (stacked, by_tree, group):
            apply(forest, op, arg)
        assert stacked.telemetry() == by_tree.telemetry()
        if op == "delete":
            assert stacked.telemetry().nodes_updated == group.telemetry().nodes_updated
    per_tree = [tree.telemetry.as_dict() for tree in by_tree.trees]
    assert stacked.telemetry().as_dict() == {key: sum(d[key] for d in per_tree)
                                            for key in per_tree[0]}
    assert stacked.telemetry().nodes_updated > 0


def test_one_update_makes_one_kernel_call_plus_one_per_redrawn_node(tmp_path, monkeypatch):
    path = tagged_snapshot(tmp_path / "tagged.bin", 4, "gini")
    forest = load(path)
    calls, redrawn = [0], [0]
    score_matrix, resample = crit.score_matrix, Tree._resample_slots

    def spy_score(*args, **kwargs):
        calls[0] += 1
        return score_matrix(*args, **kwargs)

    def spy_resample(self, node, which):
        redrawn[0] += 1
        return resample(self, node, which)

    monkeypatch.setattr(crit, "score_matrix", spy_score)
    monkeypatch.setattr(Tree, "_resample_slots", spy_resample)
    rng = np.random.default_rng(11)
    path_nodes = total_redrawn = 0
    for op, arg in random_updates(forest, rng, 60):
        calls[0] = redrawn[0] = 0
        before = forest.telemetry().nodes_updated
        apply(forest, op, arg)
        assert calls[0] == 1 + redrawn[0], (op, arg)
        path_nodes += forest.telemetry().nodes_updated - before
        total_redrawn += redrawn[0]
    # the per-node walk scored each visited grid in a call of its own
    assert total_redrawn > 0 and path_nodes > 3 * 60
