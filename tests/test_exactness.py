"""Distributional exactness of an updated tree against a retrain.

A tree that deletes a row and flushes should be distributed exactly as a
tree retrained on the remaining rows.  It is not yet: when a node's best
cell moves, the node is tagged and later redraws its attributes and
thresholds, and whether the cell moved depends on those very draws.  The
test records that bias, so it is expected to fail until a tagged node
keeps its own draws (ROADMAP item 1).

Each arm grows TREES trees of a 9-row probe; a tree is keyed by its
shape, and a chi-square test compares the two arms' key counts, with
keys seen fewer than POOL_BELOW times in both arms together pooled into
one column.

The same test checks that the level-synchronous group walk
(Tree.delete_group) deletes a group with the law of the depth-first
reference walk (oracle.reference_delete_group), each arm on its own
seeds; tests/test_group_walk.py checks that the two agree bit for bit
on the same seed.  On the 9-row probe a group redraws at one node per
depth at most, so a second probe, of 16 rows in two clusters, makes
several nodes of one depth redraw.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from dynforest.data import dataset_from_arrays
from dynforest.oracle import reference_delete_group
from dynforest.tree import TreeParams, build_tree

stats = pytest.importorskip("scipy.stats")

X = np.random.default_rng(3).random((9, 2)).round(2)
Y = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1])
PARAMS = TreeParams(max_depth=2, n_thresholds=2, n_attrs=1, min_split_size=2)
# two clusters along attribute 0, each mostly of one label, so the root
# splits between them and rarely moves; the group [5, 12, 14] lies inside
# the root's ranges but on range boundaries of the nodes below it, so in
# most trees two or more nodes of one depth redraw
_rng = np.random.default_rng(23)
X16 = np.column_stack((np.r_[_rng.uniform(0, 0.3, 8), _rng.uniform(0.7, 1, 8)],
                       _rng.random(16))).round(2)
Y16 = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0])
PARAMS16 = TreeParams(max_depth=3, n_thresholds=3, n_attrs=2, min_split_size=2)
TREES = 5_000
POOL_BELOW = 40
P_FLOOR = 1e-3


def shape(node):
    """(split attribute, left key, right key); a leaf is keyed by its
    sorted ids."""
    if node.left is None:
        return tuple(sorted(node.ids.tolist()))
    return node.axis, shape(node.left), shape(node.right)


def p_value(a, b):
    keys = list({**a, **b})
    table = np.array([[a[key] for key in keys], [b[key] for key in keys]])
    rare = table.sum(axis=0) < POOL_BELOW
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a tagged node redraws its "
                   "candidates, which biases an updated tree away from a retrain")
@pytest.mark.parametrize("row", [0, 4, 7])  # interior, attr-1 minimum, attr-1 maximum
def test_delete_then_flush_is_distributed_as_a_retrain(row):
    ds = dataset_from_arrays(X, Y)
    live = np.delete(np.arange(len(X)), row)
    updated, retrained = Counter(), Counter()
    for s in range(TREES):
        tree = build_tree(ds, np.arange(len(X)), PARAMS, key=s)
        tree.delete(row)
        tree.flush()
        updated[shape(tree.root)] += 1
        retrained[shape(build_tree(ds, live, PARAMS,
                                   key=10**6 + s).root)] += 1
    p = p_value(updated, retrained)
    assert p >= P_FLOOR, "delete row %d: p = %.2g" % (row, p)


def walk_p_value(X, Y, params, group):
    """p-value of the level walk's shapes against the reference walk's,
    each deleting group and flushing, over TREES trees per arm."""
    ds = dataset_from_arrays(X, Y)
    level, reference = Counter(), Counter()
    for s in range(TREES):
        tree = build_tree(ds, np.arange(len(X)), params, key=s)
        tree.delete_group(group)
        tree.flush()
        level[shape(tree.root)] += 1
        tree = build_tree(ds, np.arange(len(X)), params, key=10**6 + s)
        reference_delete_group(tree, group)
        tree.flush()
        reference[shape(tree.root)] += 1
    return p_value(level, reference)


def test_group_walk_is_distributed_as_the_reference_walk():
    p = walk_p_value(X, Y, PARAMS, [0, 4, 7])
    assert p >= P_FLOOR, "delete_group([0, 4, 7]): p = %.2g" % p


def test_group_walk_redrawing_several_nodes_of_a_depth_keeps_the_law():
    group = [5, 12, 14]
    inside = (X16[group] > X16.min(axis=0)) & (X16[group] < X16.max(axis=0))
    assert inside.all()  # the root redraws nothing
    p = walk_p_value(X16, Y16, PARAMS16, group)
    assert p >= P_FLOOR, "delete_group(%s): p = %.2g" % (group, p)
