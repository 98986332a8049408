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
reference walk (oracle.reference_delete_group): the two read the tree
stream in different orders, so only their laws can agree.
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
        tree = build_tree(ds, np.arange(len(X)), PARAMS, np.random.default_rng(s))
        tree.delete(row)
        tree.flush()
        updated[shape(tree.root)] += 1
        retrained[shape(build_tree(ds, live, PARAMS,
                                   np.random.default_rng(10**6 + s)).root)] += 1
    p = p_value(updated, retrained)
    assert p >= P_FLOOR, "delete row %d: p = %.2g" % (row, p)


def test_group_walk_is_distributed_as_the_reference_walk():
    ds = dataset_from_arrays(X, Y)
    group = [0, 4, 7]
    level, reference = Counter(), Counter()
    for s in range(TREES):
        tree = build_tree(ds, np.arange(len(X)), PARAMS, np.random.default_rng(s))
        tree.delete_group(group)
        tree.flush()
        level[shape(tree.root)] += 1
        tree = build_tree(ds, np.arange(len(X)), PARAMS, np.random.default_rng(10**6 + s))
        reference_delete_group(tree, group)
        tree.flush()
        reference[shape(tree.root)] += 1
    p = p_value(level, reference)
    assert p >= P_FLOOR, "delete_group([0, 4, 7]): p = %.2g" % p
