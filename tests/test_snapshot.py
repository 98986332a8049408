"""Binary model snapshots: fidelity, determinism, and corruption handling."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from dynforest.criterion import score_matrix
from dynforest.data import dataset_from_arrays
from dynforest.forest import Forest, ForestParams
from dynforest.oracle import forest_audit
from dynforest.snapshot import MAGIC, VERSION, SnapshotError, _preorder, load, save
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams


def split_snapshot(blob):
    """(JSON header, array bytes) of a snapshot."""
    start = len(MAGIC) + 4
    (blob_len,) = struct.unpack("<I", blob[len(MAGIC):start])
    return json.loads(blob[start:start + blob_len]), blob[start + blob_len:]


def join_snapshot(header, body):
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(new)) + new + body


def drop_header_key(blob, key):
    """A copy of a snapshot whose JSON header lacks one top-level key."""
    header, body = split_snapshot(blob)
    del header[key]
    return join_snapshot(header, body)


def edit_arrays(blob, edit):
    """A copy of a snapshot whose arrays went through edit(arrays), a dict
    of name -> ndarray that edit may change in place or reassign."""
    header, body = split_snapshot(blob)
    arrays, offset = {}, 0
    for name, dtype, shape in header["arrays"]:
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        arrays[name] = np.frombuffer(body[offset:offset + size],
                                     dtype=dtype).reshape(shape).copy()
        offset += size
    edit(arrays)
    header["arrays"] = [[name, str(a.dtype), list(a.shape)] for name, a in arrays.items()]
    return join_snapshot(header, b"".join(a.tobytes() for a in arrays.values()))


def trained(seed=0, n=400):
    ds = make_dataset(n, d=6, seed=seed)
    params = ForestParams(n_trees=6, occupancy=0.5, seed=seed,
                          tree=TreeParams(max_depth=7, n_thresholds=5))
    return ds, Forest.train(ds, params)


def test_round_trip_preserves_predictions_and_params(tmp_path):
    ds, forest = trained()
    path = tmp_path / "model.bin"
    save(forest, path)
    back = load(path)
    X = make_dataset(60, d=6, seed=50).X[:60]
    assert np.array_equal(forest.predict_many(X), back.predict_many(X))
    assert np.array_equal(back.assignment, forest.assignment)
    assert back.params == forest.params
    assert back.ds.schema == ds.schema
    assert back.lazy == forest.lazy
    assert forest_audit(back).ok


def test_round_trip_preserves_pending_tags(tmp_path):
    ds, forest = trained(seed=1)
    rng = np.random.default_rng(0)
    for sample_id in rng.choice(ds.live_ids(), 120, replace=False):
        forest.delete(int(sample_id))
    assert forest.tagged_count() > 0
    path = tmp_path / "model.bin"
    save(forest, path)
    back = load(path)
    assert back.tagged_count() == forest.tagged_count()
    # materializing tagged nodes draws from the restored keys, and flushing
    # from the restored rng streams, so both forests must keep answering
    # identically even through rebuilds
    X = make_dataset(80, d=6, seed=51).X[:80]
    assert np.array_equal(forest.predict_many(X), back.predict_many(X))
    forest.flush()
    back.flush()
    assert np.array_equal(forest.predict_many(X), back.predict_many(X))


def tagged_forest(seed=1, n_deletes=120):
    ds, forest = trained(seed=seed)
    rng = np.random.default_rng(0)
    for sample_id in rng.choice(ds.live_ids(), n_deletes, replace=False):
        forest.delete(int(sample_id))
    assert forest.tagged_count() > 0
    return forest


def test_round_trip_with_tags_pending_grows_identically(tmp_path):
    forest = tagged_forest(seed=2)
    path = tmp_path / "model.bin"
    save(forest, path)
    back = load(path)
    X = make_dataset(30, d=6, seed=52).X[:30]
    for tree, twin in zip(forest.trees, back.trees):
        n, pos = tree.query_many(X)
        n_back, pos_back = twin.query_many(X)
        assert np.array_equal(n, n_back) and np.array_equal(pos, pos_back)
    assert sum(t.telemetry.nodes_materialized for t in back.trees) > 0
    save(forest, tmp_path / "a.bin")
    save(back, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_round_trip_derives_every_split_axis(tmp_path):
    forest = tagged_forest(seed=3, n_deletes=20)
    save(forest, tmp_path / "model.bin")
    back = load(tmp_path / "model.bin")

    def axes(forest):
        return [[(node.axis, type(node.axis)) for node in _preorder(tree.root)]
                for tree in forest.trees]

    assert axes(back) == axes(forest)
    assert {kind for tree in axes(back) for _, kind in tree} == {int}
    assert any(axis != -1 for tree in axes(back) for axis, _ in tree)


def test_load_rejects_keys_that_do_not_match_the_tags(tmp_path):
    forest = tagged_forest(seed=3)
    path = tmp_path / "m.bin"
    save(forest, path)
    blob = path.read_bytes()
    t = next(t for t, tree in enumerate(forest.trees) if tree.n_tagged)

    def short(arrays):
        arrays["t%d.keys" % t] = arrays["t%d.keys" % t][:-1]

    def long(arrays):
        arrays["t%d.keys" % t] = np.append(arrays["t%d.keys" % t], np.uint64(7))

    def signed(arrays):
        arrays["t%d.keys" % t] = arrays["t%d.keys" % t].astype(np.int64)

    for edit in (short, long, signed):
        path.write_bytes(edit_arrays(blob, edit))
        with pytest.raises(SnapshotError, match="keys has shape"):
            load(path)


def test_round_trip_preserves_tombstones_and_id_counter(tmp_path):
    ds, forest = trained(seed=2)
    forest.delete(10)
    forest.delete(11)
    save(forest, tmp_path / "m.bin")
    back = load(tmp_path / "m.bin")
    assert back.ds.n_live == ds.n_live
    assert not back.ds.is_live(10) and not back.ds.is_live(11)
    assert np.array_equal(back.ds.live_ids(), ds.live_ids())
    # the id counter must not rewind: both sides mint the same fresh id
    row = ds.X[0] * 0.5
    assert forest.add(row, 1) == back.add(row, 1)


def test_lockstep_updates_after_load_stay_identical(tmp_path):
    ds, forest = trained(seed=3)
    save(forest, tmp_path / "m.bin")
    back = load(tmp_path / "m.bin")
    rng = np.random.default_rng(7)
    X = make_dataset(40, d=6, seed=52).X[:40]
    for j in range(30):
        if j % 3 == 0:
            sid = int(rng.choice(forest.ds.live_ids()))
            forest.delete(sid)
            back.delete(sid)
        else:
            row = X[j % len(X)] + 0.001 * j
            assert forest.add(row, j % 2) == back.add(row, j % 2)
    assert np.array_equal(forest.predict_many(X), back.predict_many(X))


def test_save_is_deterministic_and_resave_is_byte_identical(tmp_path):
    _, forest = trained(seed=4)
    a, b, c = (tmp_path / name for name in ("a.bin", "b.bin", "c.bin"))
    save(forest, a)
    save(forest, b)
    assert a.read_bytes() == b.read_bytes()
    save(load(a), c)
    assert c.read_bytes() == a.read_bytes()


def test_snapshot_starts_with_magic(tmp_path):
    _, forest = trained(seed=5, n=120)
    path = tmp_path / "m.bin"
    save(forest, path)
    assert path.read_bytes()[: len(MAGIC)] == MAGIC


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(SnapshotError, match="bad magic"):
        load(path)


def test_load_rejects_truncated_file(tmp_path):
    _, forest = trained(seed=6, n=120)
    path = tmp_path / "m.bin"
    save(forest, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(SnapshotError, match="truncated"):
        load(path)
    path.write_bytes(blob[: len(MAGIC) + 2])  # cut inside the header length
    with pytest.raises(SnapshotError, match="truncated"):
        load(path)


def test_load_rejects_array_shapes_the_file_cannot_hold(tmp_path):
    _, forest = trained(seed=11, n=120)
    path = tmp_path / "m.bin"
    save(forest, path)
    header, body = split_snapshot(path.read_bytes())
    assert header["arrays"][0][0] == "X"
    for shape in ([2**62], [-1], [-4, -4]):
        header["arrays"][0][2] = shape
        path.write_bytes(join_snapshot(header, body))
        with pytest.raises(SnapshotError, match="truncated array 'X'"):
            load(path)


def test_load_rejects_trailing_bytes(tmp_path):
    _, forest = trained(seed=7, n=120)
    path = tmp_path / "m.bin"
    save(forest, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(SnapshotError, match="trailing"):
        load(path)


def test_load_rejects_unknown_version(tmp_path):
    _, forest = trained(seed=8, n=120)
    path = tmp_path / "m.bin"
    save(forest, path)
    blob = path.read_bytes()
    current = b'"version":%d' % VERSION
    assert blob.count(current) == 1
    # version 1 files predate the per-node draw keys, version 2 files
    # store derived state
    for old in (1, 2, 9):
        path.write_bytes(blob.replace(current, b'"version":%d' % old))
        with pytest.raises(SnapshotError, match="unsupported snapshot version %d" % old):
            load(path)


def test_load_rejects_garbage_header(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(MAGIC + struct.pack("<I", 8) + b"\xff" * 8)
    with pytest.raises(SnapshotError, match="header"):
        load(path)
    _, forest = trained(seed=9, n=120)
    save(forest, path)
    path.write_bytes(drop_header_key(path.read_bytes(), "forest"))
    with pytest.raises(SnapshotError, match="forest"):
        load(path)


def test_load_rejects_structurally_corrupt_trees(tmp_path):
    _, forest = trained(seed=10, n=200)
    path = tmp_path / "m.bin"
    save(forest, path)
    blob = path.read_bytes()
    assert edit_arrays(blob, lambda arrays: None) == blob  # a faithful rewrite

    def set_row(key, row, value):
        def edit(arrays):
            arrays[key][row] = value
        return edit

    def truncate(key):
        def edit(arrays):
            arrays[key] = arrays[key][:-1]
        return edit

    def flag_slotless_node(arrays):
        flags = arrays["t0.flags"]
        flags[np.flatnonzero((flags & 2) == 0)[0]] |= 2

    def move_root_argmin(arrays):
        # set one b cell of the root's grid so that another slot wins: the
        # derived split then sends the stored ids elsewhere
        ids = arrays["t0.ids"]
        n, n_pos = len(ids), int(arrays["y"][ids].sum())
        b, c = arrays["t0.slot_b"][0], arrays["t0.slot_c"][0]
        flat = arrays["t0.slot_amin"][0] == arrays["t0.slot_amax"][0]

        def best_slot(grid):
            score = score_matrix(grid, c, n, n_pos)
            score[flat] = np.inf
            return np.unravel_index(np.argmin(score), score.shape)[0]

        k = best_slot(b)
        for cell in np.ndindex(b.shape):
            for value in range(n + 1):
                trial = b.copy()
                trial[cell] = value
                if best_slot(trial) != k:
                    b[cell] = value
                    return
        raise AssertionError("no single b cell moves the root's argmin")

    def tag_root(arrays):
        arrays["t0.flags"][0] |= 1
        arrays["t0.keys"] = np.array([7], np.uint64)

    def flatten_root_grid(arrays):
        amin = arrays["t0.slot_amin"][0]
        arrays["t0.slot_amax"][0] = amin
        arrays["t0.slot_thr"][0] = amin[:, None]

    def unsort_thresholds(arrays):
        arrays["t0.slot_thr"][0, 0] = arrays["t0.slot_thr"][0, 0, ::-1]

    def widen_thresholds(arrays):
        arrays["t0.slot_thr"][0, 0, -1] = arrays["t0.slot_amax"][0, 0] + 1.0

    def swap_assignment_rows(arrays):
        rows = arrays["assign_trees"]
        other = np.flatnonzero((rows != rows[0]).any(axis=1))[0]
        rows[[0, other]] = rows[[other, 0]]

    cases = [
        (set_row("t0.children", 0, (10**6, 10**6)), "child index"),
        (set_row("t0.children", 0, (1, -1)), "exactly one child"),
        (set_row("t0.children", 0, (0, 1)), "child index"),  # names itself
        (set_row("t0.children", 0, (1, 1)), "linked exactly once"),
        (set_row("t0.ids_len", 0, 10**6), "ids_len"),
        (set_row("t0.ids_len", 1, -1), "ids_len"),
        (set_row("t0.ids", 0, 10**6), "sample id"),
        (truncate("t0.slot_thr"), "slot_thr has shape"),
        (flag_slotless_node, "slot_attrs has shape"),
        (set_row("t0.flags", 0, 6), "unknown bits"),
        (set_row("t0.slot_attrs", 0, (0, 1, 10**6)), "slot_attrs row is not strictly"),
        (set_row("t0.slot_attrs", 0, (2, 1, 3)), "slot_attrs row is not strictly"),
        (unsort_thresholds, "slot_thr row is not sorted"),
        (widen_thresholds, "outside \\[amin, amax\\]"),
        (move_root_argmin, "sides the derived splits send them to"),
        (tag_root, "split node is tagged"),
        (flatten_root_grid, "no finite best cell"),
        (set_row("assign_ids", 0, 10**6), "assign_ids are not the live ids"),
        (truncate("assign_ids"), "assign_ids are not the live ids"),
        (truncate("assign_trees"), "assign_trees has shape"),
        (set_row("assign_trees", 0, (1, 1, 2)), "ascending trees"),
        (set_row("assign_trees", 0, (2, 1, 0)), "ascending trees"),
        (set_row("assign_trees", 0, (0, 1, 6)), "ascending trees"),
        (set_row("assign_trees", 0, (-1, 0, 1)), "ascending trees"),
        (swap_assignment_rows, "root ids disagree"),
    ]
    for edit, match in cases:
        path.write_bytes(edit_arrays(blob, edit))
        with pytest.raises(SnapshotError, match=match):
            load(path)
    header, body = split_snapshot(blob)
    header["forest"]["n_trees"] += 1
    path.write_bytes(join_snapshot(header, body))
    with pytest.raises(SnapshotError, match="6 trees stored for n_trees=7"):
        load(path)
    # slotless leaves that stopped below min_split_size could now split
    header, body = split_snapshot(blob)
    header["tree_params"]["min_split_size"] = 2
    path.write_bytes(join_snapshot(header, body))
    with pytest.raises(SnapshotError, match="untagged leaf could split"):
        load(path)


def test_snapshot_stores_no_derived_state(tmp_path):
    forest = tagged_forest(seed=4)
    path = tmp_path / "m.bin"
    save(forest, path)
    header, _ = split_snapshot(path.read_bytes())
    shapes = {name: shape for name, _, shape in header["arrays"]}
    stored = {name.partition(".")[2] for name in shapes if name.startswith("t")}
    assert stored == {"flags", "children", "ids", "ids_len", "keys", "slot_attrs",
                      "slot_amin", "slot_amax", "slot_thr", "slot_b", "slot_c"}
    for t, tree in enumerate(forest.trees):
        ends = [node for node in _preorder(tree.root) if node.left is None]
        assert shapes["t%d.ids_len" % t] == [len(ends)]
        assert shapes["t%d.ids" % t] == [sum(node.n for node in ends)]


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_reloaded_forest_follows_a_mixed_stream_bit_for_bit(tmp_path, criterion):
    # features on a coarse grid give many tied scores, so a derived best
    # cell that broke ties differently would show
    rng = np.random.default_rng(5)
    X = rng.integers(0, 4, (300, 5)).astype(np.float64)
    y = (X[:, 0] + X[:, 1] + rng.integers(0, 2, 300) > 3).astype(np.int8)
    forest = Forest.train(dataset_from_arrays(X, y), ForestParams(
        n_trees=6, occupancy=0.5, seed=3,
        tree=TreeParams(max_depth=6, n_thresholds=4, criterion=criterion)))
    for sample_id in rng.choice(300, 40, replace=False):
        forest.delete(int(sample_id))
    assert forest.tagged_count() > 0
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save(forest, a)
    back = load(a)
    save(back, b)
    assert a.read_bytes() == b.read_bytes()
    Q = rng.integers(0, 4, (40, 5)).astype(np.float64)
    for step in range(300):
        live = forest.ds.live_ids()
        if step % 4 == 0:
            sample_id = int(rng.choice(live))
            forest.delete(sample_id)
            back.delete(sample_id)
        elif step % 4 == 1:
            row, label = Q[step % len(Q)], int(step % 3 == 0)
            assert forest.add(row, label) == back.add(row, label)
        elif step % 4 == 2:
            row = Q[(7 * step) % len(Q)]
            assert forest.predict(row) == back.predict(row)
        elif step % 20 == 3:
            batch = rng.choice(live, 3, replace=False)
            forest.unlearn_batch(batch)
            back.unlearn_batch(batch)
        else:
            assert np.array_equal(forest.predict_many(Q[:8]), back.predict_many(Q[:8]))
        if step % 50 == 49:
            save(forest, a)
            save(back, b)
            assert a.read_bytes() == b.read_bytes()
    forest.flush()
    back.flush()
    save(forest, a)
    save(back, b)
    assert a.read_bytes() == b.read_bytes()
    assert forest_audit(back).ok
