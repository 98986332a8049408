"""Single-sample updates: the stacked path walk against its references.

Forest.delete and Forest.add walk all k trees of a sample in one stacked
pass (tree.update_paths).  Its references are the same walk one tree at a
time (Tree.delete and Tree.add), the group walk for deletes
(Tree.delete_group on a group of one), the depth-first reference walk of
oracle.py for deletes (oracle.reference_delete_group on a group of one)
and, for adds, a per-node add walk kept below as per_node_add.  The
references that redraw on their own (oracle.py's and per_node_add) share
no rescan, redraw or hash code with tree.py: they read their draws
through oracle.splitmix_word.  All must leave every node and every
counter the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from dynforest import criterion as crit
from dynforest import tree as tree_mod
from dynforest.data import dataset_from_arrays
from dynforest.forest import Forest, ForestParams, group_by_tree
from dynforest.oracle import (forest_audit, prefix_counts, reference_delete_group,
                              splitmix_uniforms, splitmix_word)
from dynforest.snapshot import load, save
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams, delete_groups
from test_forest import quick_params
from test_tree import grid, preorder


def regrow(tree, nodes):
    """Untag and regrow nodes of one tree, as an eager forest regrows the
    nodes an update tagged."""
    tree_mod.grow([(tree, tree_mod._untag([(tree, node) for node in nodes]))])


class TreeByTree(Forest):
    """A forest that sends each single-sample update to its trees one at a
    time, through Tree.delete and Tree.add."""

    def _update(self, tree_ids, sample_id, add):
        for t in tree_ids:
            tree = self.trees[t]
            tagged = tree.add(sample_id) if add else tree.delete(sample_id)
            if tagged is not None and not self.lazy:
                regrow(tree, [tagged])


def per_node_add(tree, sample_id):
    """Add a sample one node at a time, top down: patch the node's counts,
    widen its ranges and redraw each widened slot (s keyed uniforms scaled
    onto its range and sorted, recounted by prefix_counts), rescore it,
    and tag it or go on.
    The walk's call word is word 3i + 3 of the tree's key for sample id i,
    and the node at depth d draws words b onward of it, b = d * 2**32 *
    (p*s + 1): s per widened slot k from b + k*s, and its tag key at
    b + p*s.  An independent reference for the stacked walk; returns the
    node it tagged, or None."""
    x = tree.ds.X[sample_id]
    label = int(tree.ds.y[sample_id])
    word = splitmix_word(tree.key, 3 * sample_id + 3)
    node = tree.root
    while True:
        block = (node.depth << 32) * (tree.p * tree.s + 1)
        key = splitmix_word(word, block + tree.p * tree.s)
        node.ids = np.append(node.ids, sample_id)
        node.n_pos += label
        tree.telemetry.nodes_updated += 1
        blk = grid(tree, node)
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
            return None if stop else tree._tag(node, "tags_stopped", key)
        xs = x[blk.attrs]
        widened = (xs < blk.amin) | (xs > blk.amax)
        if node.left is None:
            # a grid leaf: every slot was constant until a value widens one
            if widened.any():
                return tree._tag(node, "tags_widened", key)
            return None
        if widened.any():
            blk.amin[widened] = np.minimum(blk.amin[widened], xs[widened])
            blk.amax[widened] = np.maximum(blk.amax[widened], xs[widened])
            positive = tree.ds.y[node.ids] == 1
            for k in np.flatnonzero(widened):
                u = splitmix_uniforms(word, block + k * tree.s, tree.s)
                blk.thr[k] = np.sort(blk.amin[k] + (blk.amax[k] - blk.amin[k]) * u)
                blk.b[k], blk.c[k] = prefix_counts(tree.ds.X[node.ids, blk.attrs[k]], positive,
                                                   blk.thr[k])
            tree.telemetry.attrs_resampled += int(widened.sum())
            tree.telemetry.range_resample_samples += node.n
        score = crit.score_matrix(blk.b, blk.c, node.n, node.n_pos, tree.params.criterion)
        score[blk.amin == blk.amax] = np.inf
        k, i = np.unravel_index(np.argmin(score), score.shape)
        if (not np.isfinite(score[k, i]) or (k, i) != (node.best_k, node.best_i)
                or blk.thr[k, i] != node.best_w):
            return tree._tag(node, "tags_moved", key)
        node = node.left if x[blk.attrs[node.best_k]] <= node.best_w else node.right


class GroupWalk(TreeByTree):
    """Deletes through the group walk, a group of one per tree, and adds
    through per_node_add."""

    @staticmethod
    def delete_group(tree, group):
        return tree.delete_group(group)

    def _update(self, tree_ids, sample_id, add):
        for t in tree_ids:
            tree = self.trees[t]
            tagged = ([per_node_add(tree, sample_id)] if add
                      else self.delete_group(tree, [sample_id]))
            if not self.lazy:
                regrow(tree, [node for node in tagged if node is not None])


class ReferenceWalk(GroupWalk):
    """Deletes through oracle.reference_delete_group, a group of one per
    tree, and adds through per_node_add."""

    delete_group = staticmethod(reference_delete_group)


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
        blk = grid(tree, node)
        if blk is not None:
            out.append(tuple(a.tobytes() for a in (blk.attrs, blk.amin, blk.amax, blk.thr,
                                                   blk.b, blk.c)))
        if node.left is not None:
            stack.extend((node.right, node.left))
    return out


def forest_state(forest):
    return ([node_state(tree) for tree in forest.trees],
            [tree.n_tagged for tree in forest.trees],
            [tree.telemetry.as_dict() for tree in forest.trees],
            forest.assignment.tobytes(),
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
    stacked, by_tree, group, reference = twins(path, lazy, TreeByTree, GroupWalk, ReferenceWalk)
    rng = np.random.default_rng(100 + seed)
    tags = 0
    for op, arg in random_updates(stacked, rng, 60):
        before = stacked.tagged_count()
        for forest in (stacked, by_tree, group, reference):
            apply(forest, op, arg)
        tags += stacked.tagged_count() != before
        want = forest_state(by_tree)
        assert forest_state(stacked) == want, (op, arg)
        assert forest_state(group) == want, (op, arg)
        assert forest_state(reference) == want, (op, arg)
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
    stacked, by_tree, group, reference = twins(path, True, TreeByTree, GroupWalk, ReferenceWalk)
    rng = np.random.default_rng(7)
    for op, arg in random_updates(stacked, rng, 40):
        for forest in (stacked, by_tree, group, reference):
            apply(forest, op, arg)
        assert stacked.telemetry() == by_tree.telemetry()
        assert stacked.telemetry() == group.telemetry(), (op, arg)
        assert stacked.telemetry() == reference.telemetry(), (op, arg)
    per_tree = [tree.telemetry.as_dict() for tree in by_tree.trees]
    assert stacked.telemetry().as_dict() == {key: sum(d[key] for d in per_tree)
                                            for key in per_tree[0]}
    assert stacked.telemetry().nodes_updated > 0


def test_one_update_makes_one_kernel_call_and_at_most_one_range_change(tmp_path, monkeypatch):
    path = tagged_snapshot(tmp_path / "tagged.bin", 4, "gini")
    forest = load(path)
    calls = {"score": 0, "range": 0}
    score_matrix, range_change = crit.score_matrix, tree_mod._range_change

    def spy_score(*args, **kwargs):
        calls["score"] += 1
        return score_matrix(*args, **kwargs)

    def spy_range_change(*args):
        calls["range"] += 1
        return range_change(*args)

    monkeypatch.setattr(crit, "score_matrix", spy_score)
    monkeypatch.setattr(tree_mod, "_range_change", spy_range_change)
    rng = np.random.default_rng(11)
    visits = range_changes = path_nodes = 0
    for op, arg in random_updates(forest, rng, 60):
        calls["score"] = calls["range"] = 0
        before = forest.telemetry().nodes_updated
        if op == "delete":
            trees = forest.assignment[arg].tolist()
            forest.delete(arg)
        else:
            sid = forest.add(*arg)
            trees = forest.assignment[sid].tolist()
        # a path holds a grid exactly when its root does: a root without
        # one is a leaf or tagged, and the path ends there
        grids = any(forest.trees[t].root.row != -1 for t in trees)
        assert calls["score"] == grids, (op, arg)
        assert calls["range"] <= grids, (op, arg)
        visits += grids
        range_changes += calls["range"]
        path_nodes += forest.telemetry().nodes_updated - before
    # the per-node walk scored each visited grid in a call of its own
    assert visits > 50 and range_changes > 0 and path_nodes > 3 * 60


def spy_on_redraws(monkeypatch):
    """Record every node that a tree_mod._range_change call redrew a slot
    of, as (tree, node)."""
    seen = []
    range_change = tree_mod._range_change

    def spy(entries, *args):
        slots = range_change(entries, *args)
        seen.extend(entry for entry, count in zip(entries, slots) if count)
        return slots

    monkeypatch.setattr(tree_mod, "_range_change", spy)
    return seen


def deep_twins(seed, classes, keys=None):
    """Lazy forests trained alike, one per class, deep enough that a walk
    often stops above nodes whose ranges the update changed.  With keys,
    tree t of each takes the key keys[t] from then on."""
    ds = make_dataset(500, d=6, seed=seed)
    params = ForestParams(n_trees=6, occupancy=0.5, seed=seed,
                          tree=TreeParams(max_depth=12, n_thresholds=4, min_split_size=4))
    forests = []
    for cls in classes:
        forest = Forest.train(dataset_from_arrays(ds.X.copy(), ds.y.copy()), params)
        forest.__class__ = cls
        for tree, key in zip(forest.trees, keys or []):
            tree.key = key
        forests.append(forest)
    return forests


def discard_run(forests, ops, seen):
    """Apply ops (as apply() takes them) to every forest, the first on its
    own while seen is recorded, checking after each op that the others
    equal the first; returns the number of ops that redrew below the node
    their walk tagged.  The tag discards such a node with its subtree,
    which puts its grid row on the free list."""
    first, *others = forests
    discarded = 0
    for op, arg in ops:
        seen.clear()
        apply(first, op, arg)
        discarded += any(node.row == -1 for _, node in seen)
        for forest in others:
            apply(forest, op, arg)
        want = forest_state(first)
        for forest in others:
            assert forest_state(forest) == want, (op, arg, type(forest).__name__)
    assert forest_audit(first).ok
    return discarded


# The redraws of a node below the tag leave no trace: the stacked walk,
# which redrew them, leaves every node and counter as the references do,
# which stop at the tag.


@pytest.mark.parametrize("seed", [0, 1])
def test_deletes_put_back_the_redraws_of_discarded_nodes(monkeypatch, seed):
    seen = spy_on_redraws(monkeypatch)
    forests = deep_twins(seed, (Forest, TreeByTree, GroupWalk, ReferenceWalk))
    doomed = np.random.default_rng(seed).choice(500, 30, replace=False).tolist()
    assert discard_run(forests, [("delete", sid) for sid in doomed], seen) >= 5
    assert forests[0].telemetry().attrs_resampled > 0


@pytest.mark.parametrize("seed", [0, 2])
def test_adds_put_back_the_redraws_of_discarded_nodes(monkeypatch, seed):
    seen = spy_on_redraws(monkeypatch)
    forests = deep_twins(seed, (Forest, TreeByTree, GroupWalk))
    rng = np.random.default_rng(seed)
    rows = make_dataset(30, d=6, seed=50 + seed).X[:30]
    ops = [("add", (x * rng.uniform(0.9, 1.15), int(rng.integers(2)))) for x in rows]
    assert discard_run(forests, ops, seen) >= 1
    assert forests[0].telemetry().attrs_resampled > 0


def test_walks_agree_for_any_tree_key(monkeypatch):
    """The walks and their references hash keys at the ends of the 64-bit
    range alike: the numpy hash wraps K + (i + 1) * gamma as the Python
    one does."""
    seen = spy_on_redraws(monkeypatch)
    keys = [0, 1, 2**63, 2**64 - 2, 2**64 - 1, 0x9E3779B97F4A7C15]
    forests = deep_twins(3, (Forest, TreeByTree, GroupWalk, ReferenceWalk), keys)
    doomed = np.random.default_rng(3).choice(500, 30, replace=False).tolist()
    rows = make_dataset(10, d=6, seed=53).X[:10]
    ops = [("delete", sid) for sid in doomed] + [("add", (x * 1.1, 1)) for x in rows]
    assert discard_run(forests, ops, seen) >= 5
    assert [tree.key for tree in forests[0].trees] == keys


def tagged_since(forest, before):
    """(tree index, node) of every node tagged, or tagged anew, since the
    tags were before (a dict from id(node) to its key)."""
    return [(t, node) for t, tree in enumerate(forest.trees) for node in preorder(tree.root)
            if node.tagged and before.get(id(node)) != node.key]


def test_each_update_call_reads_one_raw_word_per_tree_it_touches(tmp_path):
    """Each call reads its documented word of each tree it touches: a
    delete of id i word 3i + 2 of the tree's key, an add word 3i + 3, a
    batch the delete word of the smallest id of the tree's share.  A node
    the call tags, at depth d and rank r among the nodes of its tree the
    call visits at that depth, holds word (d * 2**32 + r) * (p*s + 1) +
    p*s of it as its key (oracle.splitmix_word).  A rejected call changes
    no tree, so its twin that never made the call goes on alike."""
    path = tagged_snapshot(tmp_path / "tagged.bin", 5, "gini")
    forest, twin = load(path), load(path)
    # a walk that reaches a pending tag tags nothing
    forest.flush()
    twin.flush()
    tree = forest.trees[0]
    p_s = tree.p * tree.s

    def tag_key(word, depth, rank=0):
        return splitmix_word(word, ((depth << 32) + rank) * (p_s + 1) + p_s)

    def tags():
        return {id(node): node.key for tree in forest.trees for node in preorder(tree.root)
                if node.tagged}

    checked = 0
    for op, arg in random_updates(forest, np.random.default_rng(9), 40):
        before = tags()
        if op == "delete":
            touched, word = forest.assignment[arg].tolist(), 3 * arg + 2
            forest.delete(arg)
        else:
            sid = forest.add(*arg)
            touched, word = forest.assignment[sid].tolist(), 3 * sid + 3
        for t, node in tagged_since(forest, before):
            assert t in touched
            assert node.key == tag_key(splitmix_word(forest.trees[t].key, word), node.depth)
            checked += 1
        apply(twin, op, arg)
    telemetry = forest.telemetry()
    assert checked > 5 and telemetry.attrs_resampled > 0 and telemetry.tags_moved > 0
    batch = np.random.default_rng(9).choice(forest.ds.live_ids(), 60, replace=False)
    groups = group_by_tree(batch, forest.assignment[batch], len(forest.trees))
    forest.flush()
    twin.flush()
    before = tags()
    forest.unlearn_batch(batch.tolist())
    twin.unlearn_batch(batch.tolist())
    tagged = tagged_since(forest, before)
    assert len({node.depth for _, node in tagged}) > 1
    for t, node in tagged:
        word = splitmix_word(forest.trees[t].key, 3 * int(groups[t].min()) + 2)
        assert node.key in {tag_key(word, node.depth, r) for r in range(2 ** min(node.depth, 12))}
    # rejected calls
    saved = tmp_path / "before.bin"
    save(forest, saved)
    absent = next(int(i) for i in forest.ds.live_ids() if int(i) not in set(tree.root.ids))
    with pytest.raises(ValueError, match="not present at depth 0"):
        tree.delete(absent)
    with pytest.raises(ValueError, match="already present"):
        tree.add(int(tree.root.ids[0]))
    with pytest.raises(ValueError, match="not present at depth 0"):
        delete_groups([(forest.trees[1], forest.trees[1].root.ids[:5]),
                       (tree, [int(tree.root.ids[0]), absent])])
    with pytest.raises(ValueError, match="finite"):
        forest.add(np.r_[forest.ds.X[0, :-1], np.inf], 1)
    with pytest.raises(KeyError):
        forest.delete(int(batch[0]))
    with pytest.raises(KeyError):
        forest.unlearn_batch([absent, absent])
    save(forest, tmp_path / "after.bin")
    assert (tmp_path / "after.bin").read_bytes() == saved.read_bytes()
    for op, arg in random_updates(forest, np.random.default_rng(10), 20):
        apply(forest, op, arg)
        apply(twin, op, arg)
    assert forest_state(forest) == forest_state(twin)
