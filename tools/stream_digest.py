#!/usr/bin/env python3
"""One sha256 over what a checkout's program outputs on the benchmark preset.

    python3 tools/stream_digest.py --src ../parent --seeds 1-11

For each seed, on the benchmark's preset forest (see benchmark/run.py)
trained on that seed's rows (benchmark/inputs.py), the digest takes in:

  - the trained forest's snapshot bytes and its predict_many of the
    held-out rows;
  - two stream rounds, each on a fresh load of that snapshot: the bits of
    every single predict and every added id, then the snapshot bytes (which
    hold every pending tag's key), a predict_many with the stream's tags
    pending, the snapshot bytes after flush() and the telemetry;
  - one unlearn_batch of a tenth of the rows on a fresh load, then the
    tagged predict_many, the snapshot bytes before and after flush() and
    the telemetry.

Two checkouts whose program draws, decides and saves bit for bit alike
print the same digest.  The inputs and the preset come from this
script's own checkout, so both sides see the same data; the program comes
from --src.  Per-seed digests go to stderr, the digest over all seeds to
stdout.  One seed takes a few seconds on a 2-core VM.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import inputs  # noqa: E402
import run as preset  # noqa: E402

STREAM_ROUNDS = 2


def parse_seeds(text):
    """'1-11' or '1,3,5' to a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def import_program(src):
    """dynforest from src/src, refusing any other copy."""
    path = os.path.join(os.path.abspath(src), "src")
    sys.path.insert(0, path)
    import dynforest
    from dynforest import data, snapshot  # noqa: F401  (submodules used by name)
    if os.path.dirname(os.path.dirname(os.path.abspath(dynforest.__file__))) != path:
        raise SystemExit("dynforest was not imported from %s" % path)
    return dynforest


class Digest:
    def __init__(self, df, workdir):
        self.df = df
        self.h = hashlib.sha256()
        self.file = os.path.join(workdir, "forest.bin")

    def array(self, a):
        a = np.ascontiguousarray(a)
        self.h.update(str((a.dtype.str, a.shape)).encode())
        self.h.update(a.tobytes())

    def saved(self, forest):
        self.df.snapshot.save(forest, self.file)
        with open(self.file, "rb") as f:
            self.h.update(f.read())

    def telemetry(self, forest):
        self.h.update(json.dumps(forest.telemetry().as_dict(), sort_keys=True).encode())

    def pending_and_flushed(self, forest, X):
        """The snapshot and a predict_many with tags pending, then the
        snapshot after flush() and the telemetry."""
        self.saved(forest)
        self.array(forest.predict_many(X))
        forest.flush()
        self.saved(forest)
        self.telemetry(forest)


def seed_digest(df, seed, workdir):
    d = Digest(df, workdir)
    inp = inputs.make_inputs(seed, preset.N_TRAIN, preset.N_HELD, preset.N_ATTRS)
    params = df.ForestParams(**preset.FOREST, tree=df.TreeParams(**preset.TREE))
    forest = df.Forest.train(df.data.dataset_from_arrays(inp.X_train, inp.y_train), params)
    base = os.path.join(workdir, "base.bin")
    df.snapshot.save(forest, base)
    with open(base, "rb") as f:
        d.h.update(f.read())
    held = inp.X_held[:preset.TAGGED_ROWS]
    d.array(forest.predict_many(held))
    for r in range(STREAM_ROUNDS):
        req = inputs.stream_round(seed, r, preset.N_TRAIN, preset.N_ATTRS, **preset.STREAM_MIX)
        forest = df.snapshot.load(base)
        for op, a in zip(req.ops.tolist(), req.args.tolist()):
            if op == inputs.DELETE:
                forest.delete(req.delete_ids[a])
            elif op == inputs.ADD:
                d.array(np.int64(forest.add(req.add_X[a], req.add_y[a])))
            else:
                d.array(np.float64(forest.predict(req.query_X[a])))
        d.pending_and_flushed(forest, held)
    n_unlearn = int(preset.N_TRAIN * preset.UNLEARN_SHARE)
    (ids,), rows = inputs.batch_round(seed, 0, preset.N_TRAIN, n_unlearn, 1, preset.N_HELD,
                                      preset.TAGGED_ROWS)
    forest = df.snapshot.load(base)
    forest.unlearn_batch(ids)
    d.pending_and_flushed(forest, inp.X_held[rows])
    return d.h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=ROOT, help="checkout whose src/ to run (default: this one)")
    ap.add_argument("--seeds", default="1", help="data seeds, as 1-11 or 1,3,5 (default: 1)")
    args = ap.parse_args(argv)
    df = import_program(args.src)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for seed in parse_seeds(args.seeds):
            digest = seed_digest(df, seed, workdir)
            print("seed %d: %s" % (seed, digest), file=sys.stderr)
            total.update(digest.encode())
    print(total.hexdigest())


if __name__ == "__main__":
    main()
