"""Wall-clock helpers for the CLI's timed training and unlearning runs."""

from __future__ import annotations

import time

import numpy as np


def timed(fn, *args, **kwargs):
    """Run fn and return (result, elapsed_seconds)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def sequential_unlearn(forest, ids):
    """Delete ids one by one, timing each.

    Returns (per_op_seconds, total_seconds) with per-op times as an array.
    """
    per_op = np.empty(len(ids))
    start = time.perf_counter()
    for j, sid in enumerate(ids):
        t0 = time.perf_counter()
        forest.delete(int(sid))
        per_op[j] = time.perf_counter() - t0
    return per_op, time.perf_counter() - start
