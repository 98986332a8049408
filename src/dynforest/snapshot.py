"""Versioned binary model snapshots.

Layout: an 8-byte magic string, a little-endian uint32 header length, a
JSON header (sorted keys, compact separators), then the raw bytes of every
array the header lists, concatenated in listing order (C order, native
little-endian dtypes).  Saving the same forest twice yields identical
bytes, and a reloaded forest continues bit-for-bit like the original.

The file stores each fact once: the live rows X and y, in id order, and
per tree t, over its nodes in preorder:

  t<t>.flags      the tag and grid bits of every node
  t<t>.children   every node's two child indices, -1 for a childless node
  t<t>.ids        the sample ids of the childless nodes (leaves and tagged
  t<t>.ids_len    nodes), one ids_len entry per childless node
  t<t>.keys       one uint64 draw key per tagged node, from which its
                  regrowth reads every draw (tree.key_words)
  t<t>.slot_*     one row per node with a grid: attrs, amin, amax, thr
                  (the draws) and counts b and c, in GRID_FIELDS dtypes

No generator state is stored: load derives the trees' keys from the
header's seed.  Every live sample lies in exactly k trees, so load reads
the live ids and Forest.assignment off the trees' stored ids.  A dead row is zeros; as no
stored array bounds next_id, load writes per dead id only its -1 row of
Forest.assignment (4k bytes).  Save gathers each tree's GridPool rows in
preorder; load pools all trees' grids and gives each gridded node its row.

Load derives the rest, a whole tree at a time: each node's depth from the
links; an internal node's ids (ascending, the order training and updates
keep them in) and n_pos from the childless nodes below it; and each
split node's best cell, scored from its stored counts in one best_cells
call over all the split nodes, with that cell's threshold (best_w) and
attribute (axis), which routing reads.  No score is kept.

The counts and ranges stay stored.  A vectorized recount of every grid
of the 10k-row benchmark preset took 0.11-0.12 s on a 2-core VM, against
0.14-0.16 s for a whole load, so it would add about 80% to a load; and a
tagged node's ranges are not kept current, so they do not follow from
its ids.

Only this VERSION loads; a file of version 1 to 4 raises SnapshotError.

Loading checks the header's parameters as Forest.train does, every array
against the bytes left in the file before reading it; each tree's arrays
for dtype, shape, child links, id counts and well-formed draws
(attributes strictly increasing in [0, d), thresholds sorted and, on
untagged nodes, inside their range); that every id held at all is held
by exactly k distinct trees, with one X and y row per such id; that the
stored counts are counts (along each slot, the
positives c and the negatives b - c at or below each threshold never fall,
start at 0 or more and end at most at the node's positives and negatives,
so that 0 <= c <= b <= n, before the int32 b - c is formed); and that the
derived splits reproduce the stored tree (every split node untagged,
gridded, not stopped, with a finite best cell that sends each stored id to
the side it is stored on; every untagged leaf stopped or with only
constant slots).  A file that fails any check raises SnapshotError.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .data import Dataset, Schema
from .forest import Forest, ForestParams, subsample_count
from .tree import GRID_FIELDS, GridPool, Node, Tree, TreeParams, best_cells, tree_keys

MAGIC = b"DYNFOR01"
VERSION = 5

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
    flags = np.zeros(m, np.uint8)
    children = np.full((m, 2), -1, np.int32)
    rows = []
    for i, node in enumerate(nodes):
        if node.tagged:
            flags[i] |= _TAGGED
        if node.row != -1:
            flags[i] |= _HAS_SLOTS
            rows.append(node.row)
        if node.left is not None:
            children[i] = (index[id(node.left)], index[id(node.right)])
    ends = [node for node in nodes if node.left is None]
    put("t%d.flags" % t, flags)
    put("t%d.children" % t, children)
    put("t%d.ids_len" % t, np.array([len(node.ids) for node in ends], np.int64))
    put("t%d.ids" % t, np.concatenate([node.ids for node in ends]))
    put("t%d.keys" % t, np.array([node.key for node in nodes if node.tagged], np.uint64))
    if rows:
        for key in GRID_FIELDS:
            put("t%d.slot_%s" % (t, key), getattr(tree.pool, key)[rows])
    return m


def save(forest, path):
    """Write a forest snapshot; see the module docstring for the layout."""
    arrays = []

    def put(name, arr):
        arrays.append((name, np.ascontiguousarray(arr)))

    ds = forest.ds
    live = ds.live_ids()
    put("X", ds.X[live])
    put("y", ds.y[live])
    tree_meta = [{"n_nodes": _pack_tree(t, tree, put)} for t, tree in enumerate(forest.trees)]
    header = {
        "version": VERSION,
        "data": {"n_attrs": ds.n_attrs, "next_id": ds.next_id},
        "schema": ds.schema.to_dict() if ds.schema is not None else None,
        "forest": {
            "n_trees": forest.params.n_trees,
            "occupancy": forest.params.occupancy,
            "seed": forest.params.seed,
            "lazy": forest.lazy,
        },
        "tree_params": asdict(forest.params.tree),
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


def _check_tree(t, n_nodes, arrays, pool, d, next_id):
    """Check one tree's arrays fit together, hold ids below next_id and
    well-formed draws, before anything is derived from them; returns its
    flags, children, ids, ids_len, keys and its grid arrays by name.

    An array with no entries may be left out of the file.  Raises
    ValueError, which load() reports as a SnapshotError.
    """
    def need(ok, what):
        if not ok:
            raise ValueError("tree %d: %s" % (t, what))

    def array(key, dtype, shape):
        name = "t%d.%s" % (t, key)
        a = arrays[name] if shape[0] else arrays.get(name, np.empty(shape, dtype))
        if a.dtype != dtype or a.shape != shape:
            raise ValueError("tree %d: %s has shape %s and dtype %s, expected %s %s"
                             % (t, key, a.shape, a.dtype, shape, np.dtype(dtype)))
        return a

    need(type(n_nodes) is int and n_nodes >= 1, "n_nodes must be a positive integer")
    flags = array("flags", np.uint8, (n_nodes,))
    need(not (flags & ~np.uint8(_TAGGED | _HAS_SLOTS)).any(), "flags hold unknown bits")
    children = array("children", np.int32, (n_nodes, 2))
    linked = children[:, 0] != -1
    need((linked == (children[:, 1] != -1)).all(), "a node has exactly one child")
    after = np.arange(n_nodes)[:, None] < children
    need(((children == -1) | after & (children < n_nodes)).all(),
         "child index not -1 and not between its parent and %d" % n_nodes)
    need(np.array_equal(np.sort(children[linked].ravel()), np.arange(1, n_nodes)),
         "nodes other than the root are not each linked exactly once")
    ids_len = array("ids_len", np.int64, (n_nodes - int(np.count_nonzero(linked)),))
    ids = arrays["t%d.ids" % t]
    need(ids.dtype == np.int64 and ids.ndim == 1 and (ids_len >= 0).all()
         and ids_len.sum() == len(ids), "ids_len does not sum to the %d stored ids" % ids.size)
    need(not len(ids) or 0 <= ids.min() and ids.max() < next_id,
         "sample id out of range")
    keys = array("keys", np.uint64, (int(np.count_nonzero(flags & _TAGGED)),))
    rows = int(np.count_nonzero(flags & _HAS_SLOTS))
    slot = {key: array("slot_" + key, dtype, (rows, pool.p) + (pool.s,) * (key in ("thr", "b", "c")))
            for key, dtype in GRID_FIELDS.items()}
    attrs, thr = slot["attrs"], slot["thr"]
    need((attrs[:, 1:] > attrs[:, :-1]).all() and (attrs >= 0).all() and (attrs < d).all(),
         "a slot_attrs row is not strictly increasing in [0, %d)" % d)
    need((thr[:, :, 1:] >= thr[:, :, :-1]).all(), "a slot_thr row is not sorted")
    untagged = (flags[flags & _HAS_SLOTS > 0] & _TAGGED) == 0
    need((thr[untagged, :, 0] >= slot["amin"][untagged]).all()
         and (thr[untagged, :, -1] <= slot["amax"][untagged]).all(),
         "thresholds outside [amin, amax] on an untagged node")
    return flags, children, ids, ids_len, keys, slot


def _assignment(per_tree, next_id, k):
    """The live ids (those some tree holds) and Forest.assignment, once
    each is held by exactly k distinct trees; else ValueError."""
    ids = np.concatenate(per_tree)
    live, held = np.unique(ids, return_counts=True)
    # sorted stably by id, each id's trees come in tree order
    trees = np.repeat(np.arange(len(per_tree), dtype=np.int32), [len(a) for a in per_tree])
    rows = trees[np.argsort(ids, kind="stable")]
    bad = held != k
    if not bad.any():
        rows = rows.reshape(len(live), k)
        bad = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    if bad.any():
        raise ValueError("assignment: sample id %d is not held by exactly %d distinct trees"
                         % (live[np.argmax(bad)], k))
    assignment = np.full((next_id, k), -1, np.int32)
    assignment[live] = rows
    return live, assignment


def _unpack_tree(t, stored, tree, first):
    """Build tree t from what _check_tree returned, deriving depth, ids,
    n_pos and best cells a whole tree at a time; its gridded nodes get
    the pool rows first, first + 1, ... in preorder.  Returns the stored
    grid arrays by name, for the caller to put in the pool.

    Raises ValueError, which load() reports as a SnapshotError, unless the
    stored counts are counts and the derived splits reproduce the stored
    tree.
    """
    def need(ok, what):
        if not ok:
            raise ValueError("tree %d: %s" % (t, what))

    flags, children, ids, ids_len, keys, slot = stored
    n_nodes = len(flags)
    linked = children[:, 0] != -1
    tagged = flags & _TAGGED > 0
    rows = np.flatnonzero(flags & _HAS_SLOTS)
    # depth from the links, one level of nodes at a time
    depth = np.empty(n_nodes, np.int64)
    levels = [np.zeros(1, np.int64)]
    while len(levels[-1]):
        depth[levels[-1]] = len(levels) - 1
        levels.append(children[levels[-1][linked[levels[-1]]]].ravel())
    # a subtree is a run of preorder indices, so the ids under a node are one
    # run of the stored ids: from its first childless node through its last
    last = np.arange(n_nodes)
    for level in reversed(levels):
        inner = level[linked[level]]
        last[inner] = last[children[inner, 1]]
    ahead = np.cumsum(~linked) - ~linked  # childless nodes before each node
    offsets = np.concatenate(([0], ids_len.cumsum()))
    lo, hi = offsets[ahead], offsets[ahead[last] + 1]
    n = hi - lo
    n_pos = np.concatenate(([0], (tree.ds.y[ids] == 1).cumsum()))
    n_pos = n_pos[hi] - n_pos[lo]
    # positives (c) and negatives (b - c) at or below each threshold never
    # fall along a slot, start at 0 or more, and end at most at the node's
    # positives and negatives, so 0 <= c <= b <= n before int32 b - c is formed
    b, c = slot["b"], slot["c"]
    grid_pos, grid_n = n_pos[rows, None, None], n[rows, None, None]
    need(((c[:, :, :1] >= 0) & (c <= grid_pos)).all() and (c[:, :, 1:] >= c[:, :, :-1]).all(),
         "slot_c holds a count below 0, above the node's positives, or falling along a slot")
    need(((b >= c) & (b <= grid_n)).all() and (b - c <= grid_n - grid_pos).all()
         and (np.diff(b - c, axis=2) >= 0).all(),
         "slot_b holds a count below c, above the node's size, or whose b - c falls along a slot")
    stop = tree._stop(depth, n, n_pos)
    degenerate = slot["amin"] == slot["amax"]
    constant = np.zeros(n_nodes, bool)
    constant[rows] = degenerate.all(axis=1)
    need((stop | constant)[~linked & ~tagged].all(),
         "an untagged leaf could split: it meets no stop rule and not all its slots are constant")
    split = np.flatnonzero(linked)
    need(not tagged[split].any(), "a split node is tagged")
    need((flags[split] & _HAS_SLOTS).all(), "a split node has no grid")
    need(not stop[split].any(), "a split node meets a stop rule")
    row = np.cumsum(flags & _HAS_SLOTS > 0)[split] - 1
    best_k, best_i, usable = best_cells(slot["b"][row], slot["c"][row], n[split], n_pos[split],
                                        degenerate[row], tree.params.criterion)
    need(usable.all(), "a split node has no finite best cell")
    best_w = slot["thr"][row, best_k, best_i]
    axis = slot["attrs"][row, best_k]
    # one gather over the split nodes' ids: each lies on the side its
    # node's derived split sends it to, and sorted they are the node's ids
    lens = n[split]
    seg = lens.cumsum() - lens
    at = np.arange(lens.sum()) + np.repeat(lo[split] - seg, lens)
    owner = np.repeat(np.arange(len(split)), lens)
    under = ids[at]
    goes_left = tree.ds.X[under, axis[owner]] <= best_w[owner]
    need(np.array_equal(goes_left, at < hi[children[split, 0]][owner]),
         "stored ids do not lie on the sides the derived splits send them to")
    start = lo.copy()
    start[split] = len(ids) + seg
    base = owner * tree.ds.next_id  # sorts by node, then by id
    all_ids = np.concatenate((ids, np.sort(base + under) - base))
    # each node's ids are a copy, so an id list that a later update drops
    # is freed rather than kept alive by the other nodes' ids
    nodes = [Node(dep, all_ids[a:a + size].copy(), pos) for dep, a, size, pos
             in zip(depth.tolist(), start.tolist(), n.tolist(), n_pos.tolist())]
    for i, row in zip(rows.tolist(), range(first, first + len(rows))):
        nodes[i].row = row
    for i, (li, ri), k, j, w, a in zip(split.tolist(), children[split].tolist(), best_k.tolist(),
                                       best_i.tolist(), best_w.tolist(), axis.tolist()):
        node = nodes[i]
        node.best_k, node.best_i, node.best_w, node.axis = k, j, w, a
        node.left, node.right = nodes[li], nodes[ri]
    for i, key in zip(np.flatnonzero(tagged).tolist(), keys.tolist()):
        nodes[i].tagged = True
        nodes[i].key = key
    tree.root = nodes[0]
    tree.n_tagged = len(keys)
    return slot


def load(path):
    """Read a snapshot back into a live Forest.

    Raises SnapshotError for a file that is not a well-formed snapshot,
    and for one whose header gives sizes that cannot be allocated.
    """
    try:
        return _build(*_read(path))
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SnapshotError("%s: malformed snapshot (%s: %s)"
                            % (path, type(e).__name__, e)) from None
    except MemoryError as e:
        raise SnapshotError("%s: header sizes cannot be allocated (%s)" % (path, e)) from None


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
    tp = TreeParams(**header["tree_params"])
    fp = ForestParams(n_trees=header["forest"]["n_trees"],
                      occupancy=header["forest"]["occupancy"],
                      seed=header["forest"]["seed"],
                      tree=tp)
    fp.validate(d)
    metas = header["trees"]
    if len(metas) != fp.n_trees:
        raise ValueError("%d trees stored for n_trees=%d" % (len(metas), fp.n_trees))
    pool = GridPool(tp.resolve_attrs(d), tp.n_thresholds)
    stored = [_check_tree(t, meta["n_nodes"], arrays, pool, d, next_id)
              for t, meta in enumerate(metas)]
    live, assignment = _assignment([ids for _, _, ids, *_ in stored], next_id,
                                   subsample_count(fp.occupancy, fp.n_trees))
    X, y = arrays["X"], arrays["y"]
    if len(X) != len(live) or len(y) != len(live):
        raise ValueError("X and y hold %d and %d rows for the %d live ids the trees hold"
                         % (len(X), len(y), len(live)))
    ds = Dataset.from_live_rows(d, next_id, live, X, y, schema=schema)
    trees, grids, first = [], [], 0
    for t, key in enumerate(tree_keys(fp.seed, fp.n_trees)):
        trees.append(Tree(tp, ds, key, pool))
        grids.append(_unpack_tree(t, stored[t], trees[-1], first))
        first += len(grids[-1]["b"])
    pool.extend(grids)
    return Forest(ds, fp, trees, assignment, lazy=header["forest"]["lazy"])
