"""Command-line interface.

Subcommands: gen-data, train, eval, unlearn-seq, unlearn-batch, stream,
gen-stream, audit, inspect.  Results print as key=value lines on stdout,
except audit's and inspect's, which are one JSON object each.  Exit
codes: 0 success, 2 data or configuration problem (or a model that fails
its audit), 3 unknown id in an unlearn request, 1 anything unexpected.

The seed resolves in order: explicit --seed, the DYNFOREST_SEED
environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, metrics, snapshot, stream as stream_mod, synth
from .data import ParseError, SchemaError, load_csv, load_schema
from .forest import Forest, ForestParams
from .oracle import forest_audit, naive_retrain
from .snapshot import SnapshotError
from .tree import GRID_FIELDS, TreeParams


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DYNFOREST_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SchemaError("DYNFOREST_SEED must be an integer, got %r" % env) from None
    return 0


def _load_dataset(args):
    schema = load_schema(args.schema)
    return load_csv(args.csv, schema)


def _forest_params(args, seed):
    tree = TreeParams(max_depth=args.depth,
                      n_thresholds=args.thresholds,
                      n_attrs=args.attrs,
                      min_split_size=args.min_split,
                      criterion=args.criterion)
    return ForestParams(n_trees=args.trees, occupancy=args.q, seed=seed, tree=tree)


def _pick_ids(args, forest, seed):
    """Ids from --ids, --ids-file, or --count random live draws."""
    given = [opt for opt in ("ids", "ids_file", "count") if getattr(args, opt, None) is not None]
    if len(given) != 1:
        raise SchemaError("give exactly one of --ids, --ids-file, --count")
    if args.ids is not None:
        try:
            ids = [int(v) for v in args.ids.split(",") if v.strip()]
        except ValueError:
            raise SchemaError("--ids must be a comma-separated integer list") from None
        if not ids:
            raise SchemaError("--ids names no sample id")
        return ids
    if args.ids_file is not None:
        with open(args.ids_file) as f:
            try:
                ids = [int(line) for line in f if line.strip()]
            except ValueError:
                raise SchemaError("--ids-file must hold one integer per line") from None
        if not ids:
            raise SchemaError("--ids-file %s names no sample id" % args.ids_file)
        return ids
    if args.count < 1:
        raise SchemaError("--count must be >= 1, got %d" % args.count)
    live = forest.ds.live_ids()
    if args.count > len(live):
        raise SchemaError("--count %d exceeds %d live samples" % (args.count, len(live)))
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.choice(live, size=args.count, replace=False)]


def _emit(pairs):
    for key, value in pairs:
        if isinstance(value, float):
            value = "%.6g" % value
        print("%s=%s" % (key, value))


# -- subcommands ------------------------------------------------------------


def cmd_gen_data(args):
    seed = _resolve_seed(args)
    synth.write_csv(args.out, args.schema_out, args.rows, d=args.attrs,
                    seed=seed, noise=args.noise)
    _emit([("csv", args.out), ("schema", args.schema_out),
           ("rows", args.rows), ("attrs", args.attrs), ("seed", seed)])
    return 0


def cmd_train(args):
    seed = _resolve_seed(args)
    ds = _load_dataset(args)
    params = _forest_params(args, seed)
    forest, seconds = bench.timed(Forest.train, ds, params, lazy=not args.no_lazy)
    snapshot.save(forest, args.model)
    _emit([("rows", ds.n_live), ("attrs", ds.n_attrs),
           ("trees", params.n_trees), ("trees_per_sample", forest.k),
           ("lazy", not args.no_lazy), ("seed", seed),
           ("train_s", seconds), ("model", args.model)])
    return 0


def cmd_eval(args):
    forest = snapshot.load(args.model)
    if forest.ds.schema is None:
        raise SchemaError("model %s carries no schema" % args.model)
    test = load_csv(args.csv, forest.ds.schema)
    result = metrics.evaluate(forest, test)
    _emit([("n", result["n"]),
           ("positive_rate", result["positive_rate"]),
           ("accuracy", result["accuracy"]),
           ("auc", result["auc"] if result["auc"] is not None else "nan"),
           ("headline", result["headline"]),
           ("headline_value", result["headline_value"])])
    return 0


def cmd_unlearn_seq(args):
    seed = _resolve_seed(args)
    forest = snapshot.load(args.model)
    ids = _pick_ids(args, forest, seed)
    per_op, total = bench.sequential_unlearn(forest, ids)
    pairs = [("deleted", len(ids)), ("total_s", total),
             ("mean_delete_s", float(per_op.mean())),
             ("max_delete_s", float(per_op.max()))]
    if not args.skip_naive:
        _, naive_s = bench.timed(naive_retrain, forest.ds, forest.params)
        pairs += [("naive_retrain_s", naive_s),
                  ("boost", naive_s / float(per_op.mean()))]
    if args.model_out:
        snapshot.save(forest, args.model_out)
        pairs.append(("model", args.model_out))
    if args.out:
        with open(args.out, "w") as f:
            for j, (sid, sec) in enumerate(zip(ids, per_op)):
                f.write(stream_mod.LatencyRecord(j, "delete", sec * 1e6, True, sid).to_json() + "\n")
    _emit(pairs)
    return 0


def cmd_unlearn_batch(args):
    seed = _resolve_seed(args)
    forest = snapshot.load(args.model)
    ids = _pick_ids(args, forest, seed)
    size = len(ids) if args.batch_size is None else args.batch_size
    if size < 1:
        raise SchemaError("--batch-size must be >= 1")
    batches = [ids[lo:lo + size] for lo in range(0, len(ids), size)]
    times = [bench.timed(forest.unlearn_batch, batch, finalize=True)[1]
             for batch in batches]
    pairs = [("deleted", len(ids)), ("batches", len(batches)),
             ("batch_size", size), ("total_s", float(np.sum(times))),
             ("mean_batch_s", float(np.mean(times)))]
    if args.model_out:
        snapshot.save(forest, args.model_out)
        pairs.append(("model", args.model_out))
    _emit(pairs)
    return 0


def cmd_stream(args):
    forest = snapshot.load(args.model)
    with open(args.requests) as f:
        lines = f.readlines()
    records = stream_mod.replay(forest, lines)
    if args.model_out:
        snapshot.save(forest, args.model_out)
    if args.out:
        with open(args.out, "w") as f:
            for rec in records:
                f.write(rec.to_json() + "\n")
    pairs = [("requests", len(records))]
    for op, row in stream_mod.summarize(records).items():
        pairs.append(("%s_count" % op, row["count"]))
        pairs.append(("%s_failed" % op, row["failed"]))
        for stat in stream_mod.TIME_STATS:
            if row[stat] is not None:
                pairs.append(("%s_%s" % (op, stat), row[stat]))
    pairs += forest.telemetry().as_dict().items()
    _emit(pairs)
    return 0


def cmd_gen_stream(args):
    seed = _resolve_seed(args)
    ds = _load_dataset(args)
    lines = stream_mod.generate_stream(ds, args.requests,
                                       mod_share=args.mod_share, seed=seed)
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    _emit([("requests", len(lines)), ("mod_share", args.mod_share),
           ("out", args.out), ("seed", seed)])
    return 0


def cmd_audit(args):
    report = forest_audit(snapshot.load(args.model))
    print(json.dumps({"nodes_checked": report.nodes_checked,
                      "violations": [str(v) for v in report.violations]}))
    return 0 if report.ok else 2


def cmd_inspect(args):
    forest = snapshot.load(args.model)
    depths, ids_bytes = [], 0
    for tree in forest.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            depths.append(node.depth)
            ids_bytes += node.ids.nbytes
            if node.left is not None:
                stack.extend((node.left, node.right))
    pool = forest.trees[0].pool
    sizes = {"grid." + name: getattr(pool, name).nbytes for name in GRID_FIELDS}
    sizes.update(ids=ids_bytes, dataset=forest.ds.nbytes, assignment=forest.assignment.nbytes)
    print(json.dumps({"trees": len(forest.trees), "nodes": len(depths),
                      "depth_histogram": np.bincount(depths).tolist(),
                      "tagged": forest.tagged_count(), "grid_rows": pool.in_use(),
                      "bytes": sizes, "total_bytes": sum(sizes.values())}))
    return 0


# -- wiring -------------------------------------------------------------------


def _add_seed(sp):
    sp.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: DYNFOREST_SEED env var, then 0)")


def _add_data(sp):
    sp.add_argument("--csv", required=True, help="CSV data file")
    sp.add_argument("--schema", required=True, help="JSON schema sidecar")


def _add_id_choice(sp):
    sp.add_argument("--ids", help="comma-separated sample ids")
    sp.add_argument("--ids-file", help="file with one sample id per line")
    sp.add_argument("--count", type=int, help="number of random live ids")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynforest",
        description="Randomized forests with exact sample unlearning")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-data", help="write a synthetic CSV plus schema")
    sp.add_argument("--out", required=True)
    sp.add_argument("--schema-out", required=True)
    sp.add_argument("--rows", type=int, required=True)
    sp.add_argument("--attrs", type=int, default=20)
    sp.add_argument("--noise", type=float, default=0.1)
    _add_seed(sp)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("train", help="train a forest and snapshot it")
    _add_data(sp)
    sp.add_argument("--model", required=True, help="snapshot output path")
    sp.add_argument("--trees", type=int, default=100)
    sp.add_argument("--q", type=float, default=1.0,
                    help="occupancy: fraction of trees each sample lands in")
    sp.add_argument("--depth", type=int, default=20)
    sp.add_argument("--thresholds", type=int, default=30)
    sp.add_argument("--attrs", type=int, default=None,
                    help="candidate attributes per node (default ceil(sqrt(d)))")
    sp.add_argument("--min-split", type=int, default=10)
    sp.add_argument("--criterion", choices=("gini", "entropy"), default="gini")
    sp.add_argument("--no-lazy", action="store_true",
                    help="rebuild tagged subtrees immediately after updates")
    _add_seed(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="score a model on a test CSV")
    _add_data(sp)
    sp.add_argument("--model", required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("unlearn-seq", help="delete samples one by one, timed")
    sp.add_argument("--model", required=True)
    _add_id_choice(sp)
    sp.add_argument("--model-out", help="save the updated model here")
    sp.add_argument("--out", help="write per-delete latency JSONL here")
    sp.add_argument("--skip-naive", action="store_true",
                    help="skip timing the from-scratch retrain baseline")
    _add_seed(sp)
    sp.set_defaults(fn=cmd_unlearn_seq)

    sp = sub.add_parser("unlearn-batch", help="delete samples in batches, then flush")
    sp.add_argument("--model", required=True)
    _add_id_choice(sp)
    sp.add_argument("--batch-size", type=int, default=None,
                    help="ids per batch (default: all in one batch)")
    sp.add_argument("--model-out", help="save the updated model here")
    _add_seed(sp)
    sp.set_defaults(fn=cmd_unlearn_batch)

    sp = sub.add_parser("stream", help="replay a JSONL request stream, timed")
    sp.add_argument("--model", required=True)
    sp.add_argument("--requests", required=True, help="JSONL request file")
    sp.add_argument("--out", help="write per-request latency JSONL here")
    sp.add_argument("--model-out", help="save the post-stream model here")
    sp.set_defaults(fn=cmd_stream)

    sp = sub.add_parser("gen-stream", help="write a synthetic request stream")
    _add_data(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--requests", type=int, required=True)
    sp.add_argument("--mod-share", type=float, default=0.5,
                    help="fraction of requests that modify (half add, half delete)")
    _add_seed(sp)
    sp.set_defaults(fn=cmd_gen_stream)

    sp = sub.add_parser("audit", help="recheck every cached statistic of a saved model")
    sp.add_argument("--model", required=True)
    sp.set_defaults(fn=cmd_audit)

    sp = sub.add_parser("inspect", help="summarize a saved model's nodes, tags and bytes")
    sp.add_argument("--model", required=True)
    sp.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, ParseError, SnapshotError, FileNotFoundError,
            NotADirectoryError, IsADirectoryError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except KeyError as e:
        print("error: %s" % str(e).strip("'\""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
