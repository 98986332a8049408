#!/usr/bin/env python3
"""End-to-end benchmark for dynforest.

Run from the repository root:

    python3 benchmark/run.py --workload update-stream --seed 1 --seconds 10 --trace 0

One process, one thread, a closed loop with a single caller: each call
into the program starts after the previous one returned.  Every workload
runs the same four kinds of rounds on the same preset:

  setup   build the Dataset and train the forest
  clean   batch and single-row predictions on the clean set-up forest,
          then a snapshot save and load; the saved file is the set-up
          snapshot
  stream  seeded single delete/add/predict requests, half of them
          modifications, on a fresh copy of the set-up snapshot
  batch   unlearn a tenth of the rows, predict held-out rows with tags
          pending, flush, on a fresh copy of the set-up snapshot

The workload names the kind that gets the run's measuring time (about
--seconds on the reference machine); the others run a fixed minimum, so
that every workload reports every metric.  Round counts depend only on the
workload and --seconds, never on the clock, so both sides of a comparison
do the same work.  Times are scaled to the reference host speed (see
hostspeed.py).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics; --trace 1 wraps
the program's public functions (see tracing.py), reports the per-layer
metrics and writes the spans under .bench_out/.  Exit code 2 means the
program's sources are missing or the arguments are bad, 3 that the
reported metrics differ from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

import checks
import hostspeed
import inputs
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# -- preset and round sizes (README.md says why each has its size) --------

N_TRAIN = 10_000
N_HELD = 4_000
N_ATTRS = 20
FOREST = dict(n_trees=30, occupancy=0.1, seed=1)
TREE = dict(max_depth=15, n_thresholds=15)
RETRAIN_SEED = 2

SINGLE_PREDICTS = 300                                     # per clean round
STREAM_MIX = dict(n_delete=250, n_add=125, n_query=375)   # per stream round
UNLEARN_SHARE = 0.1
# unlearn_batch calls per batch round, each on a fresh load: the cost of
# one depends strongly on which ids it removes (a tag near a root ends that
# tree's walk), so one call per round is too few samples.  Only the last
# goes on to the tagged predict and the flush.
UNLEARN_SETS = 4
TAGGED_ROWS = 150                                         # per batch round

WORKLOADS = {"train-predict": "clean", "update-stream": "stream",
             "batch-unlearn": "batch"}
MIN_ROUNDS = {"setup": 6, "clean": 8, "stream": 3, "batch": 5}
ROUND_SECONDS = {"clean": 0.5, "stream": 2.0, "batch": 1.4}  # reference machine

ACCURACY_FLOOR = 0.80
AUC_TOLERANCE = 0.05
AUDIT_TREES = 4
PROB_ATOL = 1e-12

# metric -> (unit, operation key); each value is the median over the
# run's operations of that key.  The unit says how a scaled time becomes
# the value: s as is, us times 1e6, rows/s as work per second.
END_TO_END = {
    "setup_s": ("s", "setup"),
    "train_s": ("s", "train"),
    "predict_rows_per_s": ("rows/s", "predict_many"),
    "predict_p50_us": ("us", "predict"),
    "save_s": ("s", "save"),
    "load_s": ("s", "load"),
    "delete_p50_us": ("us", "delete"),
    "add_p50_us": ("us", "add"),
    "query_p50_us": ("us", "query"),
    "unlearn_rows_per_s": ("rows/s", "unlearn"),
    "predict_tagged_rows_per_s": ("rows/s", "predict_tagged"),
    "flush_s": ("s", "flush"),
}


def rounds_for(workload, kind, seconds):
    if WORKLOADS[workload] != kind:
        return MIN_ROUNDS[kind]
    return max(MIN_ROUNDS[kind], round(seconds / ROUND_SECONDS[kind]))


def schedule(workload, seconds):
    """(kind, round) items in run order.

    The first set-up and the first clean round (which saves the set-up
    snapshot) come first.  Every other round sits at its kind's evenly
    spaced position across the run, so each metric samples the whole run
    rather than one stretch of it.
    """
    counts = {kind: rounds_for(workload, kind, seconds) for kind in MIN_ROUNDS}
    rest = sorted(((r + 0.5) / n, kind, r) for kind, n in counts.items()
                  for r in range(1 if kind in ("setup", "clean") else 0, n))
    return [("setup", 0), ("clean", 0)] + [(kind, r) for _, kind, r in rest]


class Bench:
    def __init__(self, args, dynforest, workdir, tracer):
        self.args = args
        self.seed = args.seed
        self.df = dynforest
        self.tracer = tracer
        self.base = os.path.join(workdir, "setup.bin")
        self.copy = os.path.join(workdir, "copy.bin")
        self.params = dynforest.ForestParams(tree=dynforest.TreeParams(**TREE), **FOREST)
        self.inp = inputs.make_inputs(self.seed, N_TRAIN, N_HELD, N_ATTRS)
        self.clock = hostspeed.HostClock()
        self.ops = {}               # key -> [(start, end, work)]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.telemetry = {}
        self.counts = {}
        self.forest = None          # the set-up forest; never mutated
        self.clean_probs = None
        self.stream_forest = None   # last stream round, for the end checks
        self.batch_forest = None    # last batch round, for the end checks
        self.snapshot_bytes = None

    # -- helpers ----------------------------------------------------------

    def measure(self, key, fn, *args, work=1):
        """Call fn once as one attempted operation and record its span."""
        self.attempted += 1
        self.clock.tick()
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.clock.tick()
        self.ops.setdefault(key, []).append((start, end, work))
        return result

    def count(self, key, value):
        self.counts.setdefault(key, []).append(value)

    @contextlib.contextmanager
    def untraced(self):
        """Checks and bookkeeping run with the tracer paused."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def fail(self, what):
        self.problems.append(what)

    def add_telemetry(self, forest):
        for key, value in forest.telemetry().as_dict().items():
            self.telemetry[key] = self.telemetry.get(key, 0) + value

    def restore(self):
        """A fresh copy of the set-up forest, loaded from its snapshot."""
        gc.collect()
        return self.measure("load", self.df.snapshot.load, self.base)

    # -- rounds -----------------------------------------------------------

    def setup_round(self, r):
        """Build the Dataset and train.  The first forest is kept as the
        set-up forest; later ones are only timed."""
        gc.collect()
        ds = self.measure("dataset", self.df.data.dataset_from_arrays,
                          self.inp.X_train, self.inp.y_train)
        forest = self.measure("train", self.df.Forest.train, ds, self.params)
        if r == 0:
            self.forest = forest

    def clean_round(self, r):
        forest = self.forest
        H = self.inp.X_held
        gc.collect()
        probs = self.measure("predict_many", forest.predict_many, H, work=len(H))
        rows = inputs.clean_rows(self.seed, r, N_HELD, SINGLE_PREDICTS)
        singles = np.array([self.measure("predict", forest.predict, H[i]) for i in rows])
        self.measure("save", self.df.snapshot.save, forest, self.base)
        size = os.path.getsize(self.base)
        self.restore()
        with self.untraced():
            if self.clean_probs is not None and not np.array_equal(probs, self.clean_probs):
                self.fail("clean predict_many changed between rounds of a clean forest")
            self.clean_probs = probs
            if not np.allclose(singles, probs[rows], rtol=0.0, atol=PROB_ATOL):
                self.fail("clean predict_many differs from row-by-row predict")
            self.problems += checks.probabilities("clean predict", singles)
            if self.snapshot_bytes not in (None, size):
                self.fail("snapshot size changed between saves of one forest")
            self.snapshot_bytes = size

    def stream_round(self, r):
        req = inputs.stream_round(self.seed, r, N_TRAIN, N_ATTRS, **STREAM_MIX)
        self.stream_forest = None
        forest = self.restore()
        deleted = added = 0
        probs = []
        for op, a in zip(req.ops.tolist(), req.args.tolist()):
            if op == inputs.DELETE:
                key, call, arg = "delete", forest.delete, (req.delete_ids[a],)
            elif op == inputs.ADD:
                key, call, arg = "add", forest.add, (req.add_X[a], req.add_y[a])
            else:
                key, call, arg = "query", forest.predict, (req.query_X[a],)
            try:
                result = self.measure(key, call, *arg)
            except Exception as exc:  # counted, reported, and the stream goes on
                self.failed += 1
                self.fail("stream round %d: %s failed: %r" % (r, key, exc))
                continue
            if op == inputs.DELETE:
                deleted += 1
            elif op == inputs.ADD:
                added += 1
            else:
                probs.append(result)
        with self.untraced():
            expect = N_TRAIN + added - deleted
            if forest.ds.n_live != expect:
                self.fail("stream round %d: %d live rows, expected %d"
                          % (r, forest.ds.n_live, expect))
            self.problems += checks.probabilities("stream query", probs)
            self.add_telemetry(forest)
            self.count("stream_queries", len(probs))
            # lazy adds and deletes rebuild nothing: this is the queries' work
            self.count("stream_rebuilt", forest.telemetry().subtree_samples_rebuilt)
            self.count("tagged_after_stream", forest.tagged_count())
        self.stream_forest = forest

    def batch_round(self, r):
        n_unlearn = int(N_TRAIN * UNLEARN_SHARE)
        id_sets, rows = inputs.batch_round(self.seed, r, N_TRAIN, n_unlearn, UNLEARN_SETS,
                                           N_HELD, TAGGED_ROWS)
        H = self.inp.X_held[rows]
        self.batch_forest = None
        for ids in id_sets[1:]:
            forest = self.restore()
            self.measure("unlearn", forest.unlearn_batch, ids, work=n_unlearn)
            with self.untraced():
                self.count("tagged_after_unlearn", forest.tagged_count())
                self.add_telemetry(forest)
                if forest.ds.n_live != N_TRAIN - n_unlearn:
                    self.fail("batch round %d: %d live rows after unlearn, expected %d"
                              % (r, forest.ds.n_live, N_TRAIN - n_unlearn))
            forest = None
        forest = self.restore()
        self.measure("unlearn", forest.unlearn_batch, id_sets[0], work=n_unlearn)
        with self.untraced():
            self.count("tagged_after_unlearn", forest.tagged_count())
        probs = self.measure("predict_tagged", forest.predict_many, H, work=len(H))
        self.measure("flush", forest.flush)
        with self.untraced():
            self.problems += checks.probabilities("tagged predict", probs)
            if forest.tagged_count() != 0:
                self.fail("batch round %d: %d tags left after flush"
                          % (r, forest.tagged_count()))
            if forest.ds.n_live != N_TRAIN - n_unlearn:
                self.fail("batch round %d: %d live rows, expected %d"
                          % (r, forest.ds.n_live, N_TRAIN - n_unlearn))
            self.add_telemetry(forest)
        self.batch_forest = forest

    # -- end checks ---------------------------------------------------------

    def end_checks(self):
        oracle = self.df.oracle
        trees = inputs.audit_trees(self.seed, FOREST["n_trees"], AUDIT_TREES)
        acc = float(((self.clean_probs > 0.5) == (self.inp.y_held_clean == 1)).mean())
        if acc < ACCURACY_FLOOR:
            self.fail("clean accuracy %.4f below floor %.2f" % (acc, ACCURACY_FLOOR))
        self.problems += checks.audit(oracle, self.forest, trees, "set-up forest")
        self.problems += checks.audit(oracle, self.stream_forest, trees, "stream forest")
        self.problems += checks.audit(oracle, self.batch_forest, trees, "batch forest")
        H, y = self.inp.X_held, self.inp.y_held_clean
        loaded = self.df.snapshot.load(self.base)
        if not np.array_equal(loaded.predict_many(H), self.clean_probs):
            self.fail("reloaded snapshot predicts differently")
        self.df.snapshot.save(loaded, self.copy)
        if not filecmp.cmp(self.base, self.copy, shallow=False):
            self.fail("reloaded snapshot saves to different bytes")
        auc_unlearned = checks.auc(y, self.batch_forest.predict_many(H))
        retrained = oracle.naive_retrain(self.batch_forest.ds, self.params, seed=RETRAIN_SEED)
        auc_retrained = checks.auc(y, retrained.predict_many(H))
        if abs(auc_unlearned - auc_retrained) > AUC_TOLERANCE:
            self.fail("unlearned AUC %.4f vs retrained %.4f, tolerance %.3f"
                      % (auc_unlearned, auc_retrained, AUC_TOLERANCE))
        return {"accuracy_clean": acc, "auc_unlearned": auc_unlearned,
                "auc_retrained": auc_retrained}

    # -- run ----------------------------------------------------------------

    def run(self):
        rounds = {"setup": self.setup_round, "clean": self.clean_round,
                  "stream": self.stream_round, "batch": self.batch_round}
        wall = dict.fromkeys(rounds, 0.0)
        info = {}
        for kind, r in schedule(self.args.workload, self.args.seconds):
            start = time.perf_counter()
            rounds[kind](r)
            wall[kind] += time.perf_counter() - start
            if kind == "setup" and r == 0 and self.tracer is not None:
                with self.untraced():
                    info.update(self.setup_memory())
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        start = time.perf_counter()
        with self.untraced():
            info.update(self.end_checks())
        wall["checks"] = time.perf_counter() - start
        print("wall seconds by round kind: %s"
              % json.dumps({k: round(v, 2) for k, v in wall.items()}), file=sys.stderr)
        return self.end_to_end(peak_rss), info

    def setup_memory(self):
        """tracemalloc bytes by module of one more set-up, plus node count."""
        def build():
            ds = self.df.data.dataset_from_arrays(self.inp.X_train, self.inp.y_train)
            return self.df.Forest.train(ds, self.params)

        _, by_module = tracing.allocated_bytes_by_module(build)
        info = {"mem.%s_bytes" % m: b for m, b in by_module.items()}
        info["tree.node_count"] = sum(t.node_count() for t in self.forest.trees)
        return info

    def scaled_seconds(self):
        """Per operation key, (seconds at the reference host speed, work)."""
        out = {}
        for key, spans in self.ops.items():
            seconds = [(end - start) * self.clock.scale(start, end) for start, end, _ in spans]
            out[key] = (np.asarray(seconds), np.asarray([w for _, _, w in spans], float))
        data_s, _ = out["dataset"]
        train_s, work = out["train"]
        out["setup"] = (data_s + train_s, work)
        return out

    def end_to_end(self, peak_rss):
        out = {"peak_rss_bytes": (float(peak_rss), "bytes"),
               "snapshot_bytes": (float(self.snapshot_bytes), "bytes")}
        scaled = self.scaled_seconds()
        for name, (unit, key) in END_TO_END.items():
            seconds, work = scaled[key]
            values = {"s": seconds, "us": seconds * 1e6, "rows/s": work / seconds}[unit]
            out[name] = (float(np.median(values)), unit)
        return out

    def per_layer(self, info):
        t = self.tracer
        out = t.layer_metrics()
        for key in ("nodes_updated", "range_resample_samples", "attrs_resampled",
                    "subtree_samples_rebuilt"):
            out["tree." + key] = (self.telemetry.get(key, 0), "count")
        out["tree.subtree_samples_rebuilt_per_query"] = (
            sum(self.counts["stream_rebuilt"]) / sum(self.counts["stream_queries"]), "count")
        out["tree.tag_rate"] = (t.tag_rate(), "ratio")
        out["tree.node_count"] = (info["tree.node_count"], "count")
        out["forest.tagged_nodes"] = (
            float(np.median(self.counts["tagged_after_stream"])), "count")
        out["forest.tagged_nodes_after_unlearn"] = (
            float(np.median(self.counts["tagged_after_unlearn"])), "count")
        for m in tracing.MEM_MODULES:
            out["mem.%s_bytes" % m] = (info["mem.%s_bytes" % m], "bytes")
        return out

    def samples(self):
        """Raw spans and kernel readings, for looking into a run."""
        return {"ops": {k: [[s, e, w] for s, e, w in v] for k, v in self.ops.items()},
                "kernel": [self.clock.times, self.clock.kernel_s]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import dynforest from this checkout's src/, or None if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "dynforest", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import dynforest
    from dynforest import data, oracle, snapshot  # noqa: F401  (submodules used by name)
    if os.path.dirname(os.path.dirname(os.path.abspath(dynforest.__file__))) != SRC:
        return None
    return dynforest


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def main(argv=None):
    args = parse_args(argv)
    dynforest = import_program()
    if dynforest is None:
        print("benchmark: dynforest sources not found under %s" % SRC, file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(kind)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        bench = Bench(args, dynforest, workdir, tracer)
        e2e, info = bench.run()
        metrics = e2e
        if tracer is not None:
            metrics = bench.per_layer(info)
            tracer.write(stem + "-spans", {
                "workload": args.workload, "seed": args.seed,
                "end_to_end_traced": {k: v for k, (v, _) in e2e.items()},
                "per_layer": {k: v for k, (v, _) in metrics.items()},
                "telemetry": bench.telemetry, "checks": info,
                "problems": bench.problems})
        with open(stem + "-samples.json", "w") as f:
            json.dump(bench.samples(), f)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != declared:
        print("benchmark: reported metrics differ from BENCHMARK.json %s: %s"
              % (kind, sorted(set(metrics) ^ declared)), file=sys.stderr)
        return 3
    for line in bench.problems:
        print("CHECK FAILED: %s" % line, file=sys.stderr)
    print("checks: %s" % json.dumps({k: v for k, v in info.items()
                                     if not k.startswith(("mem.", "tree."))}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
