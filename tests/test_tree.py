"""Tree construction, cached statistics, lazy updates, and audits."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from dynforest import tree as tree_mod
from dynforest.data import dataset_from_arrays
from dynforest.oracle import (AttributeSlot, prefix_counts, score_candidates,
                              sortmerge_best_split, splitmix_uniforms, splitmix_word)
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams, audit_tree, best_cells, build_tree


def small_params(**kw):
    base = dict(max_depth=8, n_thresholds=6, min_split_size=10, criterion="gini")
    base.update(kw)
    return TreeParams(**base)


def line_dataset(n, label_rule=None):
    """One attribute holding 0..n-1; labels alternate unless told otherwise."""
    X = np.arange(float(n)).reshape(n, 1)
    if label_rule is None:
        y = np.arange(n) % 2
    else:
        y = np.array([label_rule(v) for v in range(n)], dtype=np.int64)
    return dataset_from_arrays(X, y)


# -- prefix counting ----------------------------------------------------------


def test_prefix_counts_frozen_case():
    values = np.array([1.0, 2.0, 2.0, 3.0])
    positive = np.array([True, False, True, False])
    thr = np.array([0.5, 2.0, 2.5, 3.0])
    b, c = prefix_counts(values, positive, thr)
    assert b.tolist() == [0, 3, 3, 4]  # "at or below" includes equality
    assert c.tolist() == [0, 2, 2, 2]


def test_prefix_counts_empty_inputs():
    b, c = prefix_counts(np.empty(0), np.empty(0, bool), np.array([1.0, 2.0]))
    assert b.tolist() == [0, 0] and c.tolist() == [0, 0]


def test_prefix_counts_matches_sortmerge_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        m = int(rng.integers(0, 80))
        values = np.round(rng.normal(size=m), 1)  # force duplicates
        positive = rng.random(m) < 0.5
        pool = np.concatenate([values, rng.normal(size=5)])  # hit exact ties
        thr = np.sort(rng.choice(pool, size=min(6, len(pool)), replace=False))
        b, c = prefix_counts(values, positive, thr)
        ob, oc = sortmerge_best_split(values, positive, thr)
        assert np.array_equal(b, ob) and np.array_equal(c, oc)


def assert_counts_match_prefix_counts(thr, b, c, X, y, attrs, nodes):
    """Each node's (p, s) counts b and c at thresholds thr against
    prefix_counts over its ids' values of attrs."""
    for j, ids in enumerate(nodes):
        for k, attr in enumerate(attrs[j]):
            want = prefix_counts(X[ids, attr], y[ids] == 1, thr[j, k])
            assert np.array_equal(b[j, k], want[0]), (j, k)
            assert np.array_equal(c[j, k], want[1]), (j, k)


@pytest.mark.parametrize("cap", [11, 10 ** 6], ids=["runs", "one-run"])
def test_growth_counters_match_prefix_counts(cap):
    """Growth's counters, _prefix_grids over _below, on random stacks whose
    values mostly tie with a threshold and with flat slots (one value and
    thresholds all at it), counted in one run or in runs of whole nodes."""
    rng = np.random.default_rng(cap)
    for _ in range(20):
        m, p, s = int(rng.integers(1, 7)), 3, 4
        lens = rng.integers(1, 12, m)
        thr = np.sort(rng.integers(0, 5, (m, p, s)).astype(float), axis=2)
        vals = rng.integers(-1, 6, (int(lens.sum()), p)).astype(float)
        nodes = np.split(np.arange(len(vals)), lens.cumsum()[:-1])
        for j, k in zip(rng.integers(m, size=2), rng.integers(p, size=2)):
            thr[j, k] = vals[nodes[j], k] = float(rng.integers(5))
        y = rng.integers(0, 2, len(vals))
        b, c = tree_mod._prefix_grids(tree_mod._below(thr, lens, vals, cap), lens, y == 1, s)
        assert_counts_match_prefix_counts(thr, b, c, vals, y, [range(p)] * m, nodes)


def grid_words(seed):
    """A stand-in for tree_mod.key_words whose words' uniforms are
    multiples of 1/4, so that thresholds drawn over a range [0, 4] land on
    the integer values."""
    rng = np.random.default_rng(seed)

    def words(keys, index):
        shape = np.broadcast_shapes(np.shape(keys), np.shape(index))
        return rng.integers(0, 4, shape).astype(np.uint64) << np.uint64(62)

    return words


@pytest.mark.parametrize("chunk", [40, tree_mod.CHUNK_ROWS], ids=["runs", "one-run"])
def test_range_change_recount_matches_prefix_counts(monkeypatch, chunk):
    """_range_change's recount, over every gridded node of two trees at
    once: values tie with redrawn thresholds, and a constant column and
    deep nodes make flat slots."""
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.integers(0, 5, 300), np.full(300, 2), rng.integers(0, 5, 300),
                         rng.random(300)]).astype(float)
    X[:2, 0] = X[:2, 2] = [0.0, 4.0]  # every integer column spans [0, 4] at the roots
    y = rng.integers(0, 2, 300)
    ds = dataset_from_arrays(X, y)
    params = small_params(max_depth=6, n_thresholds=5, n_attrs=4, min_split_size=4)
    pool = tree_mod.GridPool(4, 5)
    trees = [tree_mod.Tree(params, ds, t, pool).build(np.arange(300))
             for t in range(2)]
    entries = [(tree, node) for tree in trees for node in walk(tree.root) if node.row != -1]
    rows = [node.row for _, node in entries]
    assert len(entries) > 10 and (pool.amin[rows] == pool.amax[rows]).any(axis=1).all()
    monkeypatch.setattr(tree_mod, "key_words", grid_words(8))
    pool.amin[rows] -= 1.0  # every range reads as changed, so every slot redraws
    monkeypatch.setattr(tree_mod, "CHUNK_ROWS", chunk)
    slots = tree_mod._range_change(entries, np.ones((len(rows), 4), bool), [True] * len(rows),
                                   np.zeros(len(rows), np.uint64), np.zeros(len(rows), np.int64))
    assert slots == [4] * len(rows)
    thr = pool.thr[rows]
    assert_counts_match_prefix_counts(thr, pool.b[rows], pool.c[rows], X, y, pool.attrs[rows],
                                      [node.ids for _, node in entries])
    # thresholds tie with values in unflat slots as well
    unflat = pool.amin[rows] < pool.amax[rows]
    assert np.isin(thr[unflat], X[:, [0, 2]]).any()


def walk(node):
    """node and every node below it, in preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if node.left is not None:
            stack.extend((node.right, node.left))


def test_score_candidates_recounts_from_scratch():
    ds = line_dataset(4, label_rule=lambda v: int(v >= 2))
    slot = AttributeSlot(0, 0.0, 3.0, np.array([2.5]), None, None, None)
    out = score_candidates(np.arange(4), ds, slot, "gini")
    assert out.b.tolist() == [3] and out.c.tolist() == [1]
    # left (3 samples, 1 pos) right (1, 1 pos): 3/4 * 4/9 = 1/3
    assert out.score[0] == pytest.approx(1 / 3)


# n = 10 samples, 5 positive: cells (0, 1), (0, 2) and (1, 0) split them
# perfectly and tie at score 0; (0, 0) and (1, 1..2) do worse
GRID_B = np.array([[8, 5, 5], [5, 9, 9]])
GRID_C = np.array([[4, 0, 0], [0, 4, 4]])


def test_argmin_grid_takes_first_minimum():
    no_flat = np.zeros(2, bool)
    for criterion in ("gini", "entropy"):
        # row-major first occurrence: slots in draw order, thresholds ascending
        assert best_cells(GRID_B, GRID_C, 10, 5, no_flat, criterion) == (0, 1, True)
        k, i, usable = best_cells(GRID_B[None], GRID_C[None], np.array([10]), np.array([5]),
                                  no_flat[None], criterion)
        assert (k.tolist(), i.tolist(), usable.tolist()) == ([0], [1], [True])


def test_best_cells_never_picks_a_flat_slot():
    # slot 0 splits perfectly and slot 1 does not, but slot 0's range is a
    # single value
    b = np.array([[8, 5, 5], [6, 9, 9]])
    c = np.array([[4, 0, 0], [1, 4, 4]])
    one_flat, all_flat = np.array([True, False]), np.ones(2, bool)
    for criterion in ("gini", "entropy"):
        assert best_cells(b, c, 10, 5, np.zeros(2, bool), criterion) == (0, 1, True)
        assert best_cells(b, c, 10, 5, one_flat, criterion) == (1, 0, True)
        assert best_cells(b, c, 10, 5, all_flat, criterion)[2] is False
        # the same two grids as a stack, scored in one call
        k, i, usable = best_cells(np.stack([b, b]), np.stack([c, c]), np.array([10, 10]),
                                  np.array([5, 5]), np.stack([one_flat, all_flat]), criterion)
        assert (k[0], i[0]) == (1, 0) and usable.tolist() == [True, False]


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_cells_scores_a_stack_in_blocks_as_one_grid_at_a_time(monkeypatch, criterion):
    rng = np.random.default_rng(8)
    m, p, s = 23, 3, 4
    n = rng.integers(0, 40, size=m)
    n_pos = rng.integers(0, n + 1)
    b = rng.integers(0, n[:, None, None] + 1, size=(m, p, s)).astype(np.int32)
    c = rng.integers(np.maximum(0, b - (n - n_pos)[:, None, None]),
                     np.minimum(b, n_pos[:, None, None]) + 1).astype(np.int32)
    flat = rng.random((m, p)) < 0.2
    one = [best_cells(b[j], c[j], int(n[j]), int(n_pos[j]), flat[j], criterion)
           for j in range(m)]
    # one block, blocks of 1, 2 and 5 grids
    for cells in (10 ** 6, 1, 2 * p * s, 5 * p * s + 3):
        monkeypatch.setattr(tree_mod, "SCORE_CELLS", cells)
        k, i, usable = best_cells(b, c, n, n_pos, flat, criterion)
        assert list(zip(k.tolist(), i.tolist(), usable.tolist())) == one


def test_best_cells_of_an_empty_stack():
    none = np.zeros((0, 2, 3), np.int64)
    k, i, usable = best_cells(none, none, np.zeros(0, np.int64), np.zeros(0, np.int64),
                              np.zeros((0, 2), bool), "gini")
    assert k.shape == i.shape == usable.shape == (0,)


def grid(tree, node):
    """node's grid as views of its pool row (attrs, amin, amax, thr, b and
    c, and p), or None for a node without one.  The views are good until the
    pool next grows."""
    if node.row == -1:
        return None
    pool = tree.pool
    return SimpleNamespace(p=pool.p, **{name: getattr(pool, name)[node.row]
                                        for name in ("attrs", "amin", "amax", "thr", "b", "c")})


# -- construction -------------------------------------------------------------


def test_build_respects_stopping_rules():
    # pure labels: immediate slotless leaf
    ds = line_dataset(30, label_rule=lambda v: 1)
    tree = build_tree(ds, ds.live_ids(), small_params())
    assert tree.root.left is None and tree.root.row == -1
    # too few samples
    ds = line_dataset(9)
    tree = build_tree(ds, ds.live_ids(), small_params(min_split_size=10))
    assert tree.root.left is None
    # constant features: leaf that keeps its (degenerate) grid
    ds = dataset_from_arrays(np.ones((20, 3)), np.arange(20) % 2)
    tree = build_tree(ds, ds.live_ids(), small_params())
    blk = grid(tree, tree.root)
    assert tree.root.left is None and blk is not None
    assert not best_cells(blk.b, blk.c, tree.root.n, tree.root.n_pos, blk.amin == blk.amax,
                          "gini")[2]


def test_build_depth_limit():
    ds = make_dataset(400, d=6, seed=0)
    tree = build_tree(ds, ds.live_ids(), small_params(max_depth=3, min_split_size=2))
    depths = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        depths.append(node.depth)
        if node.left is not None:
            stack.extend((node.left, node.right))
    assert max(depths) <= 3


def preorder(root):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.left is not None:
            stack.extend((node.right, node.left))
    return out


def signature(tree):
    """Every node's structure, statistics and grid, in preorder."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append((node.depth, node.n, node.n_pos, node.best_k, node.best_i,
                    node.best_w, node.tagged, node.key if node.tagged else None,
                    tuple(node.ids)))
        blk = grid(tree, node)
        if blk is not None:
            out.append(tuple(blk.attrs) + tuple(blk.thr.ravel()) + tuple(blk.b.ravel()))
        if node.left is not None:
            stack.extend((node.left, node.right))
    return out


def test_build_is_deterministic_given_seed():
    ds = make_dataset(300, d=8, seed=2)
    a = build_tree(ds, ds.live_ids(), small_params(), key=9)
    b = build_tree(ds, ds.live_ids(), small_params(), key=9)
    assert signature(a) == signature(b)
    c = build_tree(ds, ds.live_ids(), small_params(), key=10)
    assert not np.array_equal(grid(a, a.root).thr, grid(c, c.root).thr)


def delete_until_two_tags(tree, doomed):
    """Delete ids from doomed until two tags are pending; a tagged root
    ends every later walk, so it is flushed and the deletes go on."""
    while tree.n_tagged < 2:
        if tree.root.tagged:
            tree.flush()
        tree.delete(next(doomed))


def test_copies_stay_identical_through_deletes_and_flush():
    def grown():
        ds = make_dataset(500, d=8, seed=20)
        tree = build_tree(ds, ds.live_ids(), small_params(), key=21)
        delete_until_two_tags(tree, iter(range(0, 500, 3)))
        return tree

    a, b = grown(), grown()
    assert a.n_tagged > 1
    a.flush()
    b.flush()
    assert signature(a) == signature(b)


def test_level_builder_passes_audit_on_every_path():
    # build, query-driven materialization and flush all grow through the
    # one level kernel; each must leave exact statistics
    for seed in range(4):
        criterion = ("gini", "entropy")[seed % 2]
        ds = make_dataset(600, d=7, seed=30 + seed)
        params = small_params(criterion=criterion, n_attrs=2 + seed % 3)
        tree = build_tree(ds, ds.live_ids(), params, key=seed)
        assert audit_tree(tree).ok
        rng = np.random.default_rng(100 + seed)
        doomed = iter(rng.choice(ds.live_ids(), 300, replace=False).tolist())

        def delete_until_tagged():
            while tree.n_tagged == 0:
                tree.delete(next(doomed))

        delete_until_tagged()
        work = tree.telemetry.subtree_samples_rebuilt
        # a row of some tagged node's own samples reaches that node
        tagged = next(node for node in preorder(tree.root) if node.tagged and node.n)
        rows = list(make_dataset(40, d=7, seed=40 + seed).X[:40]) + [ds.X[tagged.ids[0]]]
        for row in rows:
            tree.query(row)
        assert tree.telemetry.subtree_samples_rebuilt > work
        report = audit_tree(tree)
        assert report.ok, "seed %d after queries: %s" % (seed, report.summary())
        delete_until_tagged()
        tree.flush()
        report = audit_tree(tree)
        assert report.ok and tree.n_tagged == 0, "seed %d after flush: %s" % (
            seed, report.summary())


def test_level_draws_are_uniform_over_seeds():
    """Attribute subsets are uniform p-subsets (chi-square) and thresholds
    are uniform over their slot's range (Kolmogorov-Smirnov), at the root
    and at depth 1, where the frontier holds two nodes.

    2000 fixed seeds make the outcome deterministic; under the null each
    p-value would fall below its 0.001 floor with probability 0.001.
    """
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 6))
    X[:, 3] = 1.5  # a constant attribute: its slots are degenerate and hold its value
    ds = dataset_from_arrays(X, rng.integers(0, 2, size=80))
    params = TreeParams(max_depth=2, n_thresholds=5, n_attrs=2, min_split_size=2)
    subsets = {}
    root_counts = np.zeros(15)
    unit = []
    for seed in range(2000):
        tree = build_tree(ds, ds.live_ids(), params, key=seed)
        root = tree.root
        for node in (root, root.left, root.right):
            if node is None or node.row == -1:
                continue
            blk = grid(tree, node)
            if node is root:
                key = tuple(blk.attrs)
                root_counts[subsets.setdefault(key, len(subsets))] += 1
            live = blk.amin < blk.amax
            unit.append(((blk.thr[live] - blk.amin[live, None])
                         / (blk.amax[live] - blk.amin[live])[:, None]).ravel())
    assert len(subsets) == 15  # C(6, 2)
    assert stats.chisquare(root_counts).pvalue > 1e-3
    unit = np.concatenate(unit)
    assert len(unit) > 20000
    assert stats.kstest(unit, "uniform").pvalue > 1e-3


def test_a_level_reads_one_block_of_d_plus_p_s_uniforms_per_node():
    """A growing node reads d + p*s uniforms, words 0 to d + p*s - 1 of
    its own key (oracle.splitmix_word): the p smallest of the first d pick
    the attributes, and the next s per slot are the slot's thresholds,
    scaled onto its range and sorted; words d + p*s and d + p*s + 1 key
    its children.  A flat slot reads its s uniforms too and holds its one
    value.  The root's key is word 0 of the tree's key, and no grown node
    keeps a key."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 4))
    X[:, :2] = 0.5  # two constant attributes: every 3 of the 4 has one, in slot 0
    ds = dataset_from_arrays(X, rng.integers(0, 2, size=120))
    d, p, s = 4, 3, 5
    params = TreeParams(max_depth=2, n_thresholds=s, n_attrs=p, min_split_size=2)
    tree = build_tree(ds, ds.live_ids(), params, key=7)
    root = tree.root
    levels = [[root], [root.left, root.right]]
    assert all(node.row != -1 for level in levels for node in level)
    keys = {root: splitmix_word(7, 0)}
    for level in levels:
        for node in level:
            key = keys[node]
            u = splitmix_uniforms(key, 0, d + p * s)
            keys[node.left], keys[node.right] = (splitmix_word(key, d + p * s + i) for i in (0, 1))
            blk = grid(tree, node)
            attrs = np.sort(np.argsort(u[:d])[:p])
            assert blk.attrs.tolist() == attrs.tolist()
            vals = X[node.ids][:, attrs]
            lo, hi = vals.min(axis=0), vals.max(axis=0)
            thr = np.sort(lo[:, None] + (hi - lo)[:, None] * u[d:].reshape(p, s), axis=1)
            assert blk.thr.tobytes() == thr.tobytes()
            assert lo[0] == hi[0] and (blk.thr[0] == 0.5).all()
    assert all(node.key is None for node in walk(root))


def test_query_grown_draws_are_uniform_over_seeds():
    """Nodes grown by queries read their own keyed streams: their attribute
    subsets are uniform p-subsets (chi-square) and their thresholds are
    uniform over their slot's range (Kolmogorov-Smirnov), at the tagged
    root and at the two children one batch query grows below it.

    2000 fixed seeds make the outcome deterministic; under the null each
    p-value would fall below its 0.001 floor with probability 0.001.
    """
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1)
    X = rng.normal(size=(80, 6))
    X[:, 3] = 1.5  # a constant attribute: its slots are degenerate
    ds = dataset_from_arrays(X, rng.integers(0, 2, size=80))
    params = TreeParams(max_depth=2, n_thresholds=5, n_attrs=2, min_split_size=2)
    rows = X[:20]
    subsets = {}
    root_counts = np.zeros(15)
    unit = []
    for seed in range(2000):
        tree = build_tree(ds, ds.live_ids(), params, key=seed)
        tree._tag(tree.root, "tags_moved", splitmix_word(seed, 1))
        tree.query_many(rows)
        root = tree.root
        assert tree.telemetry.nodes_materialized >= 1
        for node in (root, root.left, root.right):
            if node is None or node.row == -1 or node.tagged:
                continue
            blk = grid(tree, node)
            if node is root:
                key = tuple(blk.attrs)
                root_counts[subsets.setdefault(key, len(subsets))] += 1
            live = blk.amin < blk.amax
            unit.append(((blk.thr[live] - blk.amin[live, None])
                         / (blk.amax[live] - blk.amin[live])[:, None]).ravel())
    assert len(subsets) == 15  # C(6, 2)
    assert stats.chisquare(root_counts).pvalue > 1e-3
    unit = np.concatenate(unit)
    assert len(unit) > 20000
    assert stats.kstest(unit, "uniform").pvalue > 1e-3


def test_fresh_build_passes_audit():
    for seed in range(3):
        ds = make_dataset(500, d=10, seed=seed)
        tree = build_tree(ds, ds.live_ids(), small_params(),
                          key=seed)
        report = audit_tree(tree)
        assert report.ok, report.summary()


def test_build_on_empty_and_singleton_id_sets():
    ds = make_dataset(50, d=6, seed=1)
    tree = build_tree(ds, np.empty(0, np.int64), small_params())
    assert tree.root.n == 0
    assert tree.query(ds.X[0]) == (0, 0)
    tree = build_tree(ds, np.array([3]), small_params())
    assert tree.root.n == 1 and tree.root.left is None


# -- deletions ----------------------------------------------------------------


def test_delete_updates_path_statistics():
    ds = make_dataset(400, d=6, seed=3)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=1)
    before = tree.telemetry.nodes_updated
    tree.delete(7)
    touched = tree.telemetry.nodes_updated - before
    assert 1 <= touched <= small_params().max_depth + 1
    assert audit_tree(tree).ok
    with pytest.raises(ValueError, match="not present"):
        tree.delete(7)  # already gone from the tree


def test_delete_below_min_split_tags_the_node():
    ds = line_dataset(10)  # exactly min_split_size samples: root still splits
    tree = build_tree(ds, ds.live_ids(), small_params(min_split_size=10),
                      key=0)
    assert tree.root.left is not None
    tagged = tree.delete(3)
    assert tagged is tree.root and tree.root.tagged
    assert tree.root.left is None and tree.root.best_k == -1
    assert audit_tree(tree).ok


def test_delete_boundary_value_resamples_thresholds():
    ds = line_dataset(30)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=2)
    assert tree.telemetry.attrs_resampled == 0
    tree.delete(29)  # unique maximum of the only attribute: root range shrinks
    assert tree.telemetry.attrs_resampled >= 1
    assert tree.telemetry.range_resample_samples >= 29
    assert audit_tree(tree).ok


def test_delete_at_tagged_node_only_patches_stats():
    ds = dataset_from_arrays(np.full((12, 2), 5.0), np.arange(12) % 2)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=0)
    extra = ds.add([9.0, 9.0], 1)  # widens a degenerate slot: tags the leaf
    assert tree.add(extra) is tree.root and tree.root.tagged
    n_before = tree.root.n
    assert tree.delete(0) is None  # no new tag; stats still maintained
    assert tree.root.n == n_before - 1
    assert audit_tree(tree).ok


def test_delete_everything_leaves_consistent_empty_tree():
    ds = make_dataset(60, d=5, seed=4)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=3)
    for sid in ds.live_ids():
        tree.delete(int(sid))
    assert tree.root.n == 0 and tree.root.n_pos == 0
    assert audit_tree(tree).ok
    assert tree.query(ds.X[0])[0] == 0


def test_delete_group_matches_individual_deletes_for_singletons():
    ds1 = make_dataset(300, d=6, seed=5)
    ds2 = make_dataset(300, d=6, seed=5)
    t1 = build_tree(ds1, ds1.live_ids(), small_params(), key=4)
    t2 = build_tree(ds2, ds2.live_ids(), small_params(), key=4)
    for sid in (5, 17, 40, 99):
        t1.delete(sid)
        t2.delete_group(np.array([sid]))
    # identical structure and statistics afterwards
    pairs = [(t1.root, t2.root)]
    while pairs:
        a, b = pairs.pop()
        assert (a.n, a.n_pos, a.best_k, a.best_i, a.best_w, a.tagged) == \
               (b.n, b.n_pos, b.best_k, b.best_i, b.best_w, b.tagged)
        assert np.array_equal(a.ids, b.ids)
        if a.row != -1:
            assert np.array_equal(grid(t1, a).thr, grid(t2, b).thr)
            assert np.array_equal(grid(t1, a).b, grid(t2, b).b)
        assert (a.left is None) == (b.left is None)
        if a.left is not None:
            pairs.extend(((a.left, b.left), (a.right, b.right)))


def test_delete_group_bulk_stays_consistent():
    ds = make_dataset(800, d=8, seed=6)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=5)
    rng = np.random.default_rng(0)
    group = rng.choice(ds.live_ids(), 200, replace=False).astype(np.int64)
    tree.delete_group(group)
    assert tree.root.n == 600
    assert not np.isin(tree.root.ids, group).any()
    assert audit_tree(tree).ok


def test_delete_group_returns_the_nodes_it_tagged():
    ds = make_dataset(800, d=8, seed=6)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=5)
    group = np.random.default_rng(1).choice(ds.live_ids(), 300, replace=False)
    tagged = tree.delete_group(group)
    assert tagged and all(node.tagged for node in tagged)
    assert len({id(node) for node in tagged}) == len(tagged) == tree.n_tagged
    assert tree.delete_group([]) == []
    with pytest.raises(ValueError, match="1 of 2 ids not present"):
        tree.delete_group([int(group[0]), int(tree.root.ids[0])])
    tree.flush()
    assert tree.n_tagged == 0 and audit_tree(tree).ok


# -- additions ----------------------------------------------------------------


def test_add_routes_and_patches_statistics():
    ds = make_dataset(400, d=6, seed=7)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=6)
    sid = ds.add(ds.X[0] + 0.001, 1)
    tree.add(sid)
    assert tree.root.n == 401
    assert audit_tree(tree).ok
    with pytest.raises(ValueError, match="already present"):
        tree.add(sid)


def test_add_outside_range_resamples_internal_thresholds():
    ds = line_dataset(30)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=7)
    sid = ds.add([100.0], 1)
    tree.add(sid)
    assert tree.telemetry.attrs_resampled >= 1  # counted before any tagging
    assert audit_tree(tree).ok


def test_add_turns_pure_leaf_splittable():
    ds = line_dataset(12, label_rule=lambda v: 1)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=8)
    assert tree.root.left is None and tree.root.row == -1  # pure leaf
    same = ds.add([50.0], 1)
    assert tree.add(same) is None  # still pure: nothing to revisit
    other = ds.add([60.0], 0)
    tagged = tree.add(other)
    assert tagged is tree.root and tree.root.tagged
    assert audit_tree(tree).ok


def test_add_grows_small_leaf_past_min_split():
    ds = line_dataset(5)
    tree = build_tree(ds, ds.live_ids(), small_params(min_split_size=10),
                      key=9)
    for v in range(5, 9):  # 6th..9th samples: still under the limit
        assert tree.add(ds.add([float(v)], v % 2)) is None
    tenth = ds.add([9.0], 1)
    assert tree.add(tenth) is tree.root
    assert tree.root.tagged


def test_add_widening_value_tags_degenerate_leaf():
    ds = dataset_from_arrays(np.full((14, 2), 7.0), np.arange(14) % 2)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=10)
    assert tree.root.left is None and tree.root.row != -1
    inside = ds.add([7.0, 7.0], 0)
    assert tree.add(inside) is None  # still degenerate on every slot
    outside = ds.add([7.0, 8.5], 1)
    assert tree.add(outside) is tree.root
    assert audit_tree(tree).ok


# -- queries and materialization ----------------------------------------------


def test_query_on_clean_tree_is_read_only():
    ds = make_dataset(300, d=6, seed=8)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=11)
    before = tree.telemetry.as_dict()
    n, pos = tree.query(ds.X[5])
    assert 0 <= pos <= n
    assert tree.telemetry.as_dict() == before
    assert tree.n_tagged == 0


def test_query_materializes_one_level_and_pushes_tags_down():
    ds = dataset_from_arrays(np.full((30, 1), 2.0), np.arange(30) % 2)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=12)
    sid = ds.add([5.0], 1)
    assert tree.add(sid) is tree.root  # widened degenerate leaf
    assert tree.n_tagged == 1
    n, pos = tree.query(np.array([5.0]))
    # root rebuilt one level: both children exist and are tagged, except
    # the queried side which materialized on the way down
    assert not tree.root.tagged and tree.root.left is not None
    assert tree.n_tagged == 1  # two children tagged, one untagged by the walk
    assert tree.telemetry.subtree_samples_rebuilt > 0
    work = tree.telemetry.as_dict()
    assert tree.query(np.array([5.0])) == (n, pos)  # repeat: no further work
    assert tree.telemetry.as_dict() == work
    assert audit_tree(tree).ok


def test_query_many_agrees_with_scalar_queries():
    ds = make_dataset(500, d=8, seed=9)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=13)
    X = make_dataset(80, d=8, seed=10).X[:80]
    n_vec, pos_vec = tree.query_many(X)
    singles = [tree.query(X[r]) for r in range(len(X))]
    assert n_vec.tolist() == [s[0] for s in singles]
    assert pos_vec.tolist() == [s[1] for s in singles]


def test_query_many_while_tagged_matches_sequential_semantics():
    def build_pair():
        ds = make_dataset(400, d=6, seed=11)
        tree = build_tree(ds, ds.live_ids(), small_params(),
                          key=14)
        for sid in range(0, 120, 3):
            tree.delete(sid)
        return ds, tree

    ds1, t1 = build_pair()
    ds2, t2 = build_pair()
    X = make_dataset(60, d=6, seed=12).X[:60]
    n1, p1 = t1.query_many(X)
    rows = [t2.query(X[r]) for r in range(len(X))]
    assert n1.tolist() == [r[0] for r in rows]
    assert p1.tolist() == [r[1] for r in rows]


def test_query_many_is_independent_of_row_order():
    # a node grown by a query draws from its own key, so the order in
    # which rows reach tagged nodes changes neither the tree nor the counts
    def tagged_tree():
        ds = make_dataset(400, d=6, seed=11)
        tree = build_tree(ds, ds.live_ids(), small_params(),
                          key=14)
        delete_until_two_tags(tree, iter(range(0, 400, 3)))
        return tree

    X = make_dataset(60, d=6, seed=12).X[:60]
    perm = np.random.default_rng(3).permutation(len(X))
    forward, permuted, single = tagged_tree(), tagged_tree(), tagged_tree()
    n_f, p_f = forward.query_many(X)
    n_p, p_p = permuted.query_many(X[perm])
    rows = {r: single.query(X[r]) for r in perm[::-1].tolist()}
    assert n_p.tolist() == n_f[perm].tolist() and p_p.tolist() == p_f[perm].tolist()
    assert n_f.tolist() == [rows[r][0] for r in range(len(X))]
    assert p_f.tolist() == [rows[r][1] for r in range(len(X))]
    assert signature(permuted) == signature(forward) == signature(single)
    assert forward.telemetry.nodes_materialized > 0
    assert audit_tree(forward).ok


def test_tag_counters_count_each_tag_once_and_repeat_exactly():
    def run():
        ds = make_dataset(500, d=6, seed=21)
        tree = build_tree(ds, ds.live_ids(), small_params(), key=22)
        rng = np.random.default_rng(23)
        probe = make_dataset(30, d=6, seed=24).X[:30]
        events = 0
        for sid in rng.choice(ds.live_ids(), 150, replace=False).tolist():
            events += tree.delete(sid) is not None
            ds.tombstone(sid)
            new = ds.add(probe[sid % 30] * 1.3, sid % 2)  # some values widen ranges
            events += tree.add(new) is not None
            tree.query(probe[sid % 30])
        # stop tags are rare in that mix: delete, flushing after each, until
        # a walk ends at a split node whose stop rule now holds, which the
        # root's does once it holds fewer than min_split_size rows
        for sid in ds.live_ids().tolist():
            if tree.telemetry.tags_stopped:
                break
            events += tree.delete(sid) is not None
            ds.tombstone(sid)
            tree.flush()
        return events, tree.telemetry.as_dict()

    first = run()
    assert run() == first
    events, counts = first
    causes = counts["tags_moved"] + counts["tags_stopped"] + counts["tags_widened"]
    assert causes == events > 0
    assert counts["tags_moved"] > 0 and counts["tags_stopped"] > 0
    assert counts["nodes_materialized"] > 0


# -- flush ----------------------------------------------------------------------


def test_flush_clears_tags_and_is_idempotent():
    ds = make_dataset(600, d=8, seed=13)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=15)
    rng = np.random.default_rng(1)
    for sid in rng.choice(ds.live_ids(), 150, replace=False):
        tree.delete(int(sid))
    tree.flush()
    assert tree.n_tagged == 0
    assert audit_tree(tree).ok
    work = tree.telemetry.as_dict()
    tree.flush()
    assert tree.telemetry.as_dict() == work  # nothing left to rebuild


def test_flush_preserves_covered_ids():
    ds = make_dataset(300, d=6, seed=14)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=16)
    for sid in range(0, 100, 2):
        tree.delete(sid)
    survivors = np.sort(tree.root.ids.copy())
    tree.flush()
    assert np.array_equal(np.sort(tree.root.ids), survivors)


# -- audit teeth ----------------------------------------------------------------


def test_audit_detects_corrupted_counts():
    ds = make_dataset(300, d=6, seed=15)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=17)
    node = tree.root
    grid(tree, node).b[0, 0] += 1
    report = audit_tree(tree)
    assert not report.ok
    assert any("b counts" in str(v) for v in report.violations)


def test_audit_detects_stale_best_split():
    ds = make_dataset(300, d=6, seed=16)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=18)
    tree.root.best_w += 1e-6
    report = audit_tree(tree)
    assert not report.ok


def test_audit_detects_a_split_on_a_cell_that_is_not_the_argmin():
    ds = make_dataset(300, d=6, seed=16)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=18)
    node, blk = tree.root, grid(tree, tree.root)
    # a usable cell of another slot, with the split's threshold and axis
    # moved along, so that only the choice of cell is wrong
    k = next(k for k in range(blk.p) if k != node.best_k and blk.amin[k] != blk.amax[k])
    node.best_k, node.best_i = k, 0
    node.best_w, node.axis = float(blk.thr[k, 0]), int(blk.attrs[k])
    report = audit_tree(tree)
    assert any("best split not the grid argmin" in str(v) for v in report.violations)


def test_audit_flags_pool_rows_that_are_shared_free_or_out_of_range():
    ds = make_dataset(300, d=6, seed=15)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=17)
    root, left = tree.root, tree.root.left
    assert audit_tree(tree).ok and left.row != -1

    def flagged(what):
        return [str(v) for v in audit_tree(tree).violations if what in str(v)]

    row = left.row
    left.row = root.row
    assert flagged("grid row shared with another node")
    for bad in (tree.pool.end, -2):
        left.row = bad
        assert flagged("grid row out of range")
    left.row = row
    tree.pool.release([row])
    assert flagged("grid row on the free list")


def test_audit_flags_an_untagged_node_that_holds_a_key():
    ds = make_dataset(300, d=6, seed=15)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=17)
    assert audit_tree(tree).ok and tree.root.key is None
    tree.root.left.key = 12345
    assert [(v.where, v.what) for v in audit_tree(tree).violations] == [
        ("tree.L", "untagged node holds a draw key")]
    tree.root.left.key = None
    tree._tag(tree.root, "tags_moved", 6789)
    assert audit_tree(tree).ok and tree.root.key == 6789


def test_audit_detects_wrong_partition():
    ds = make_dataset(300, d=6, seed=17)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=19)
    left, right = tree.root.left, tree.root.right
    left.ids, right.ids = right.ids, left.ids
    report = audit_tree(tree)
    assert not report.ok


# -- interleaved fuzz ------------------------------------------------------------


def test_interleaved_operations_fuzz_stays_audit_clean():
    ds = make_dataset(700, d=8, seed=18)
    tree = build_tree(ds, ds.live_ids(), small_params(), key=20)
    rng = np.random.default_rng(99)
    present = set(int(i) for i in ds.live_ids())
    probe = make_dataset(40, d=8, seed=19).X[:40]
    for step in range(400):
        r = rng.random()
        if r < 0.35 and len(present) > 5:
            sid = int(rng.choice(sorted(present)))
            tree.delete(sid)
            ds.tombstone(sid)
            present.discard(sid)
        elif r < 0.65:
            base = probe[int(rng.integers(len(probe)))]
            sid = ds.add(base + rng.normal(scale=0.01, size=8), int(rng.integers(2)))
            tree.add(sid)
            present.add(sid)
        else:
            tree.query(probe[int(rng.integers(len(probe)))])
        if step % 50 == 49:
            report = audit_tree(tree)
            assert report.ok, "step %d: %s" % (step, report.summary())
    tree.flush()
    assert audit_tree(tree).ok
