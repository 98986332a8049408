#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarized as BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --topic stacked_updates --seeds 3001-3010 \\
        --claim update-stream:delete_p50_us --trace update-stream:3001

For every workload that BENCHMARK.json declares and every seed, the
script runs benchmark/run.py once in each checkout, alternating which
side goes first (the parent on odd pairs), so that a slow stretch of the
machine falls on both sides alike.  Each side's run imports the program
from its own src/.  The file then holds,
per workload and end-to-end metric, the quartiles of each side's runs, the
change's median over the parent's, and the number of pairs in which the
change did better.

A claim (--claim workload:metric) passes when the change wins at least
nine pairs in ten and its median beats the parent's by more than the
parent's interquartile range.  --trace workload:seed adds one traced run
per side and records the per-layer metrics of both.

The runs take the whole machine: run nothing else meanwhile.  One pair of
10-second runs takes about a minute on a 2-core VM.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """'3001-3010' or '5,7,9' to a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in checkout; returns its result object."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit("%s in %s exited %d:\n%s" % (" ".join(cmd), checkout,
                                                    out.returncode, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["problems"] = [ln for ln in out.stderr.splitlines() if ln.startswith("CHECK FAILED")]
    return result


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(runs, declared):
    """Per-metric comparison of the paired runs of one workload."""
    metrics = {}
    for name, spec in declared.items():
        parent = np.array([p["metrics"][name]["value"] for p, _ in runs])
        change = np.array([c["metrics"][name]["value"] for _, c in runs])
        lower = spec["better"] == "lower"
        ratio = float(np.median(change) / np.median(parent))
        wins = int(np.count_nonzero(change < parent if lower else change > parent))
        worse = ratio - 1.0 if lower else 1.0 - ratio
        metrics[name] = {
            "better": spec["better"], "bound": spec["bound"],
            "parent": quartiles(parent), "change": quartiles(change),
            "ratio_change_over_parent": ratio,
            "pair_wins": wins, "pairs": len(runs),
            "within_bound": bool(worse <= spec["bound"]),
        }
    return metrics


def judge_claim(entry):
    """Does the change win 9 pairs in 10, by more than the parent's IQR?"""
    p, c = entry["parent"], entry["change"]
    gap = (p["median"] - c["median"]) if entry["better"] == "lower" else (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    return {"pair_wins": entry["pair_wins"], "pairs": entry["pairs"],
            "median_gap": gap, "parent_iqr": iqr,
            "ratio_change_over_parent": entry["ratio_change_over_parent"],
            "holds": bool(entry["pair_wins"] >= 0.9 * entry["pairs"] and gap > iqr)}


def git_head(checkout):
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, help="checkout of the change")
    ap.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    ap.add_argument("--describe", default="", help="one line saying what the change is")
    ap.add_argument("--seeds", required=True, help="e.g. 3001-3010; one pair per seed")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--claim", action="append", default=[], help="workload:metric")
    ap.add_argument("--trace", action="append", default=[], help="workload:seed")
    ap.add_argument("--out-dir", default=ROOT)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    doc = {
        "change": args.describe,
        "parent_commit": git_head(args.parent),
        "command": "python3 benchmark/run.py --workload <w> --seed <s> --seconds %g --trace 0"
                   % args.seconds,
        "method": "alternating parent/change pairs (parent first on odd pairs), one run "
                  "each, same machine, seeds %s; quartiles over the pairs' per-run values; "
                  "pair_wins counts pairs where the change is better in the metric's "
                  "direction" % args.seeds,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "workloads": {},
    }
    for workload in [w["name"] for w in benchmark["workloads"]]:
        runs = []
        for j, seed in enumerate(seeds):
            order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
            pair = {side: run_once(getattr(args, side), workload, seed, args.seconds, 0)
                    for side in order}
            runs.append((pair["parent"], pair["change"]))
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        doc["workloads"][workload] = {
            "seeds": seeds,
            "correct": {side: all(r[i]["correct"] for r in runs)
                        for i, side in enumerate(("parent", "change"))},
            "failed_ops": {side: sum(r[i]["failed"] for r in runs)
                           for i, side in enumerate(("parent", "change"))},
            "problems": sorted({line for r in runs for side in r for line in side["problems"]}),
            "metrics": summarize(runs, declared),
        }
    claims = {}
    for item in args.claim:
        workload, metric = item.split(":")
        claims[item] = judge_claim(doc["workloads"][workload]["metrics"][metric])
    if claims:
        doc["claims"] = claims
    traced = {}
    for item in args.trace:
        workload, seed = item.split(":")
        sides = {side: run_once(getattr(args, side), workload, int(seed), args.seconds, 1)
                 for side in ("parent", "change")}
        traced[item] = {name: {side: sides[side]["metrics"][name]["value"] for side in sides}
                        for name in sorted(sides["change"]["metrics"])}
    if traced:
        doc["per_layer"] = traced
    path = os.path.join(args.out_dir, "BENCH_%s.json" % args.topic)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(path)
    return 0 if all(c["holds"] for c in claims.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
