"""Seeded inputs for the benchmark.

Labels follow a union of axis-aligned boxes over the first eight
attributes, with a share of them flipped; the remaining attributes are
noise.  Everything is drawn here from the run's seed, and the program only
ever receives the arrays, so a change to dynforest cannot change a
workload's inputs.  Each phase round draws from its own child generator,
keyed by (seed, phase, round), so rounds are independent of one another
and of how many rounds a run makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLIP_RATE = 0.1

# Each box is a tuple of (attribute, low, high) bounds; a row is positive
# under the clean rule when it lies inside any box.  About 49% of uniform
# rows are positive.  Boxes of two and three attributes keep the rule hard
# enough that the forest's held-out AUC (about 0.975) is not saturated, so
# the unlearn-versus-retrain AUC check has room to fail.
BOXES = (
    ((0, 0.0, 0.5), (1, 0.3, 0.9), (2, 0.0, 0.6)),
    ((3, 0.4, 1.0), (4, 0.2, 0.8), (5, 0.5, 1.0)),
    ((6, 0.0, 0.3), (7, 0.0, 0.5)),
    ((1, 0.0, 0.2), (6, 0.6, 1.0)),
)

_PHASE_KEYS = {"train": 0, "held": 1, "clean": 2, "stream": 3, "batch": 4, "audit": 5}

# Request codes in a stream round.
DELETE, ADD, QUERY = 0, 1, 2


def child_rng(seed, phase, r=0):
    """Generator for one phase round, independent of every other round."""
    return np.random.default_rng([seed, _PHASE_KEYS[phase], r])


def clean_rule(X):
    """Noise-free labels of the rows of X (int8 0/1)."""
    inside = np.zeros(len(X), bool)
    for box in BOXES:
        hit = np.ones(len(X), bool)
        for attr, low, high in box:
            hit &= (X[:, attr] >= low) & (X[:, attr] < high)
        inside |= hit
    return inside.astype(np.int8)


def draw_rows(rng, m, d):
    """m uniform rows with clean and flipped labels."""
    X = rng.random((m, d))
    clean = clean_rule(X)
    noisy = clean ^ (rng.random(m) < FLIP_RATE).astype(np.int8)
    return X, clean, noisy


@dataclass
class Inputs:
    """Training rows (ids 0..n_train-1 once loaded) and held-out rows."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_held: np.ndarray
    y_held_clean: np.ndarray


def make_inputs(seed, n_train, n_held, d):
    X_train, _, y_train = draw_rows(child_rng(seed, "train"), n_train, d)
    X_held, y_held_clean, _ = draw_rows(child_rng(seed, "held"), n_held, d)
    return Inputs(X_train, y_train, X_held, y_held_clean)


@dataclass
class StreamRound:
    """One round of single requests, served in order.

    ops[j] is DELETE, ADD or QUERY; args[j] indexes delete_ids, the add
    rows or the query rows for that op.
    """

    ops: np.ndarray
    args: np.ndarray
    delete_ids: list
    add_X: np.ndarray
    add_y: list
    query_X: np.ndarray


def stream_round(seed, r, n_train, d, n_delete, n_add, n_query):
    """Requests for stream round r.  Deletes name distinct training ids,
    so every one is live when the round starts from the set-up forest."""
    rng = child_rng(seed, "stream", r)
    delete_ids = [int(i) for i in rng.choice(n_train, n_delete, replace=False)]
    add_X, _, add_y = draw_rows(rng, n_add, d)
    query_X, _, _ = draw_rows(rng, n_query, d)
    ops = np.concatenate([np.full(n_delete, DELETE), np.full(n_add, ADD),
                          np.full(n_query, QUERY)]).astype(np.int8)
    args = np.concatenate([np.arange(n_delete), np.arange(n_add), np.arange(n_query)])
    order = rng.permutation(len(ops))
    return StreamRound(ops[order], args[order], delete_ids, add_X,
                       [int(v) for v in add_y], query_X)


def batch_round(seed, r, n_train, n_unlearn, n_sets, n_held, n_rows):
    """n_sets independent id lists to unlearn in batch round r, and the
    held-out rows to predict while the first list's tags are pending."""
    rng = child_rng(seed, "batch", r)
    id_sets = [[int(i) for i in rng.choice(n_train, n_unlearn, replace=False)]
               for _ in range(n_sets)]
    rows = np.sort(rng.choice(n_held, n_rows, replace=False))
    return id_sets, rows


def clean_rows(seed, r, n_held, n_rows):
    """Held-out rows served one at a time in clean round r."""
    return child_rng(seed, "clean", r).choice(n_held, n_rows, replace=False)


def audit_trees(seed, n_trees, n_audit):
    """Seeded subset of tree indices for the statistics audit."""
    return sorted(int(t) for t in child_rng(seed, "audit").choice(n_trees, n_audit,
                                                                  replace=False))
