"""Versioned binary model snapshots.

Layout: an 8-byte magic string, a little-endian uint32 header length, a
JSON header (sorted keys, compact separators), then the raw bytes of every
array the header lists, concatenated in listing order (C order, native
little-endian dtypes).  Everything that affects future behaviour is
captured: the dataset (including tombstones), the tree assignment, every
node of every tree with its cached statistics and tags, the exact
generator states, and, per tree, the array t<i>.keys holding one uint64
draw key per tagged node in preorder, so a reloaded forest continues
bit-for-bit like the original.  A query-grown node's Philox stream is set
up from its key alone, so no Philox state is stored.  Saving the same
forest twice yields identical bytes.

VERSION 2 added the keys; a version 1 file raises SnapshotError.

Loading checks every array against the bytes left in the file before
reading it, each tree's arrays against one another (shapes, child links,
id counts, slot rows) before building any node, and the assignment
against the live ids and every tree's root ids; a file that fails any
check raises SnapshotError.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .data import Dataset, Schema
from .forest import Forest, ForestParams, group_by_tree, subsample_count
from .tree import Node, SlotBlock, Tree, TreeParams

MAGIC = b"DYNFOR01"
VERSION = 2

_TAGGED = 1
_HAS_SLOTS = 2


class SnapshotError(ValueError):
    """Model file is missing, corrupt, or from an unknown version."""


def _preorder(root):
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.left is not None:
            stack.append(node.right)
            stack.append(node.left)
    return nodes


def _pack_tree(t, tree, put):
    nodes = _preorder(tree.root)
    index = {id(node): i for i, node in enumerate(nodes)}
    m = len(nodes)
    depth = np.empty(m, np.int32)
    n_pos = np.empty(m, np.int64)
    flags = np.zeros(m, np.uint8)
    best = np.full((m, 2), -1, np.int32)
    best_w = np.zeros(m, np.float64)
    children = np.full((m, 2), -1, np.int32)
    ids_len = np.empty(m, np.int64)
    slot_rows = []
    for i, node in enumerate(nodes):
        depth[i] = node.depth
        n_pos[i] = node.n_pos
        ids_len[i] = len(node.ids)
        best[i] = (node.best_k, node.best_i)
        best_w[i] = node.best_w
        if node.tagged:
            flags[i] |= _TAGGED
        if node.slots is not None:
            flags[i] |= _HAS_SLOTS
            slot_rows.append(node.slots)
        if node.left is not None:
            children[i] = (index[id(node.left)], index[id(node.right)])
    put("t%d.depth" % t, depth)
    put("t%d.n_pos" % t, n_pos)
    put("t%d.flags" % t, flags)
    put("t%d.best" % t, best)
    put("t%d.best_w" % t, best_w)
    put("t%d.children" % t, children)
    put("t%d.ids_len" % t, ids_len)
    put("t%d.ids" % t, np.concatenate([node.ids for node in nodes])
        if nodes else np.empty(0, np.int64))
    put("t%d.keys" % t, np.array([node.key for node in nodes if node.tagged], np.uint64))
    if slot_rows:
        put("t%d.slot_attrs" % t, np.stack([blk.attrs for blk in slot_rows]).astype(np.int64))
        put("t%d.slot_amin" % t, np.stack([blk.amin for blk in slot_rows]))
        put("t%d.slot_amax" % t, np.stack([blk.amax for blk in slot_rows]))
        put("t%d.slot_thr" % t, np.stack([blk.thr for blk in slot_rows]))
        put("t%d.slot_b" % t, np.stack([blk.b for blk in slot_rows]))
        put("t%d.slot_c" % t, np.stack([blk.c for blk in slot_rows]))
        put("t%d.slot_score" % t, np.stack([blk.score for blk in slot_rows]))
    return m


def save(forest, path):
    """Write a forest snapshot; see the module docstring for the layout."""
    arrays = []

    def put(name, arr):
        arrays.append((name, np.ascontiguousarray(arr)))

    ds = forest.ds
    put("X", ds.X)
    put("y", ds.y)
    put("live", ds._live[: ds.next_id].astype(np.uint8))
    live_ids = ds.live_ids()
    put("assign_ids", live_ids)
    put("assign_trees", forest.assignment[live_ids])
    tree_meta = []
    for t, tree in enumerate(forest.trees):
        n_nodes = _pack_tree(t, tree, put)
        tree_meta.append({"n_nodes": n_nodes, "rng": tree.rng.bit_generator.state})
    tp = forest.params.tree
    header = {
        "version": VERSION,
        "data": {"n_attrs": ds.n_attrs, "next_id": ds.next_id},
        "schema": ds.schema.to_dict() if ds.schema is not None else None,
        "forest": {
            "n_trees": forest.params.n_trees,
            "occupancy": forest.params.occupancy,
            "seed": forest.params.seed,
            "lazy": forest.lazy,
            "rng": forest.rng.bit_generator.state,
        },
        "tree_params": {
            "max_depth": tp.max_depth,
            "n_thresholds": tp.n_thresholds,
            "n_attrs": tp.n_attrs,
            "min_split_size": tp.min_split_size,
            "criterion": tp.criterion,
        },
        "trees": tree_meta,
        "arrays": [[name, str(arr.dtype), list(arr.shape)] for name, arr in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, arr in arrays:
            f.write(arr.tobytes())


def _check_tree(t, n_nodes, arrays, tree):
    """Check one tree's arrays fit together before any node is built.

    Raises ValueError, which load() reports as a SnapshotError.
    """
    def need(ok, what):
        if not ok:
            raise ValueError("tree %d: %s" % (t, what))

    def array(key):
        return arrays["t%d.%s" % (t, key)]

    need(type(n_nodes) is int and n_nodes >= 1, "n_nodes must be a positive integer")
    for key, shape in (("depth", (n_nodes,)), ("n_pos", (n_nodes,)),
                       ("flags", (n_nodes,)), ("best", (n_nodes, 2)),
                       ("best_w", (n_nodes,)), ("children", (n_nodes, 2)),
                       ("ids_len", (n_nodes,))):
        need(array(key).shape == shape, "%s has shape %s, expected %s"
             % (key, array(key).shape, shape))
    ids, ids_len = array("ids"), array("ids_len")
    need(ids.ndim == 1 and (ids_len >= 0).all() and ids_len.sum() == len(ids),
         "ids_len does not sum to the %d stored ids" % ids.size)
    need(not len(ids) or 0 <= ids.min() and ids.max() < tree.ds.next_id,
         "sample id out of range")
    children = array("children")
    linked = children[:, 0] != -1
    need((linked == (children[:, 1] != -1)).all(), "a node has exactly one child")
    after = np.arange(n_nodes)[:, None] < children
    need(((children == -1) | after & (children < n_nodes)).all(),
         "child index not -1 and not between its parent and %d" % n_nodes)
    need(np.array_equal(np.sort(children[linked].ravel()), np.arange(1, n_nodes)),
         "nodes other than the root are not each linked exactly once")
    tagged, keys = int(np.count_nonzero(array("flags") & _TAGGED)), array("keys")
    need(keys.shape == (tagged,) and keys.dtype == np.uint64,
         "keys has shape %s and dtype %s, expected (%d,) uint64"
         % (keys.shape, keys.dtype, tagged))
    rows = int(np.count_nonzero(array("flags") & _HAS_SLOTS))
    for key, tail in (("attrs", (tree.p,)), ("amin", (tree.p,)), ("amax", (tree.p,)),
                      ("thr", (tree.p, tree.s)), ("b", (tree.p, tree.s)),
                      ("c", (tree.p, tree.s)), ("score", (tree.p, tree.s))):
        shape = arrays.get("t%d.slot_%s" % (t, key), np.empty((0,) + tail)).shape
        need(shape == (rows,) + tail, "slot_%s has shape %s for %d nodes with slots"
             % (key, shape, rows))


def _check_assignment(arrays, ds, fp, trees):
    """The saved assignment as Forest.assignment, once it matches the live
    ids and every tree's root ids.

    Raises ValueError, which load() reports as a SnapshotError.
    """
    def need(ok, what):
        if not ok:
            raise ValueError("assignment: %s" % what)

    ids, rows = ds.live_ids(), arrays["assign_trees"]
    n_trees, k = fp.n_trees, subsample_count(fp.occupancy, fp.n_trees)
    need(len(trees) == n_trees, "%d trees stored for n_trees=%d" % (len(trees), n_trees))
    need(np.array_equal(arrays["assign_ids"], ids), "assign_ids are not the live ids")
    need(rows.shape == (len(ids), k), "assign_trees has shape %s, expected (%d, %d)"
         % (rows.shape, len(ids), k))
    need(not rows.size or (rows[:, 1:] > rows[:, :-1]).all() and rows[:, 0].min() >= 0
         and rows[:, -1].max() < n_trees, "a row does not name %d ascending trees in [0, %d)"
         % (k, n_trees))
    for t, share in enumerate(group_by_tree(ids, rows, n_trees)):
        need(np.array_equal(np.sort(trees[t].root.ids), share),
             "tree %d root ids disagree with it" % t)
    assignment = np.full((ds.next_id, k), -1, np.int32)
    assignment[ids] = rows
    return assignment


def _unpack_tree(t, n_nodes, arrays, tree):
    _check_tree(t, n_nodes, arrays, tree)
    depth = arrays["t%d.depth" % t]
    n_pos = arrays["t%d.n_pos" % t]
    flags = arrays["t%d.flags" % t]
    best = arrays["t%d.best" % t]
    best_w = arrays["t%d.best_w" % t]
    children = arrays["t%d.children" % t]
    ids_len = arrays["t%d.ids_len" % t]
    ids_all = arrays["t%d.ids" % t]
    offsets = np.concatenate(([0], ids_len.cumsum()))
    nodes = []
    slot_cursor = 0
    for i in range(n_nodes):
        node = Node(int(depth[i]), ids_all[offsets[i]:offsets[i + 1]].copy(),
                    int(n_pos[i]))
        node.best_k = int(best[i, 0])
        node.best_i = int(best[i, 1])
        node.best_w = float(best_w[i])
        node.tagged = bool(flags[i] & _TAGGED)
        if flags[i] & _HAS_SLOTS:
            node.slots = SlotBlock(
                arrays["t%d.slot_attrs" % t][slot_cursor].copy(),
                arrays["t%d.slot_amin" % t][slot_cursor].copy(),
                arrays["t%d.slot_amax" % t][slot_cursor].copy(),
                arrays["t%d.slot_thr" % t][slot_cursor].copy(),
                arrays["t%d.slot_b" % t][slot_cursor].copy(),
                arrays["t%d.slot_c" % t][slot_cursor].copy(),
                arrays["t%d.slot_score" % t][slot_cursor].copy(),
            )
            slot_cursor += 1
        nodes.append(node)
    tagged = np.flatnonzero(flags & _TAGGED).tolist()
    for i, key in zip(tagged, arrays["t%d.keys" % t].tolist()):
        nodes[i].key = key
    for i, node in enumerate(nodes):
        li, ri = int(children[i, 0]), int(children[i, 1])
        if li >= 0:
            node.left = nodes[li]
            node.right = nodes[ri]
    tree.root = nodes[0]
    tree.n_tagged = len(tagged)


def load(path):
    """Read a snapshot back into a live Forest.

    Raises SnapshotError for a file that is not a well-formed snapshot.
    """
    try:
        return _build(*_read(path))
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SnapshotError("%s: malformed snapshot (%s: %s)"
                            % (path, type(e).__name__, e)) from None


def _read(path):
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise SnapshotError("%s: not a model snapshot (bad magic)" % path)
        raw = f.read(4)
        if len(raw) != 4:
            raise SnapshotError("%s: truncated header length" % path)
        (blob_len,) = struct.unpack("<I", raw)
        try:
            header = json.loads(f.read(blob_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise SnapshotError("%s: corrupt header (%s)" % (path, e)) from None
        if not isinstance(header, dict):
            raise SnapshotError("%s: corrupt header (not an object)" % path)
        if header.get("version") != VERSION:
            raise SnapshotError("%s: unsupported snapshot version %r"
                                % (path, header.get("version")))
        arrays = {}
        left = os.fstat(f.fileno()).st_size - f.tell()
        for name, dtype, shape in header["arrays"]:
            size = math.prod(shape) * np.dtype(dtype).itemsize
            if min(shape, default=0) < 0 or size > left:
                raise SnapshotError("%s: truncated array %r" % (path, name))
            left -= size
            raw = f.read(size)
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if f.read(1):
            raise SnapshotError("%s: trailing bytes after last array" % path)
    return header, arrays


def _build(header, arrays):
    schema = Schema.from_dict(header["schema"]) if header["schema"] else None
    d = header["data"]["n_attrs"]
    next_id = header["data"]["next_id"]
    ds = Dataset(d, schema=schema, capacity=max(next_id, 16))
    ds.add_many(arrays["X"], arrays["y"])
    for i in np.flatnonzero(arrays["live"] == 0):
        ds.tombstone(int(i))

    tp = TreeParams(**header["tree_params"])
    fp = ForestParams(n_trees=header["forest"]["n_trees"],
                      occupancy=header["forest"]["occupancy"],
                      seed=header["forest"]["seed"],
                      tree=tp)
    trees = []
    for t, meta in enumerate(header["trees"]):
        rng = np.random.default_rng(0)
        rng.bit_generator.state = meta["rng"]
        tree = Tree(tp, ds, rng)
        _unpack_tree(t, meta["n_nodes"], arrays, tree)
        trees.append(tree)
    assignment = _check_assignment(arrays, ds, fp, trees)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = header["forest"]["rng"]
    return Forest(ds, fp, trees, assignment, rng, lazy=header["forest"]["lazy"])
