"""Request streams: wire format, strict in-order replay, latency records.

One JSON object per line:

    {"op": "add", "features": [..], "label": 1}
    {"op": "delete", "id": 123}
    {"op": "query", "features": [..]}

Requests are served strictly in file order against a single forest.  Each
served request yields a LatencyRecord with the service time in
microseconds; malformed lines, non-finite features and unknown delete
ids are recorded as failures and the stream continues.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .data import ParseError

OPS = ("add", "delete", "query")
TIME_STATS = ("mean_us", "min_us", "max_us", "p50_us", "p95_us", "p99_us")
_FLOAT_MAX = sys.float_info.max


@dataclass
class Request:
    op: str
    features: np.ndarray | None = None
    label: int | None = None
    id: int | None = None


@dataclass
class LatencyRecord:
    seq: int
    op: str
    micros: float
    ok: bool
    result: object = None

    def to_json(self):
        return json.dumps({"seq": self.seq, "op": self.op,
                           "micros": round(self.micros, 3),
                           "ok": self.ok, "result": self.result})


def parse_request(line, n_attrs):
    """Decode one stream line; raises ParseError on anything off."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError("not valid JSON: %s" % e) from None
    if not isinstance(obj, dict):
        raise ParseError("request must be a JSON object")
    op = obj.get("op")
    if op not in OPS:
        raise ParseError("unknown op %r" % (op,))
    req = Request(op=op)
    if op in ("add", "query"):
        feats = obj.get("features")
        if (not isinstance(feats, list) or len(feats) != n_attrs
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           and -_FLOAT_MAX <= v <= _FLOAT_MAX for v in feats)):
            raise ParseError("op %r needs a finite numeric feature list of length %d"
                             % (op, n_attrs))
        req.features = np.asarray(feats, dtype=np.float64)
    if op == "add":
        label = obj.get("label")
        if isinstance(label, bool) or label not in (0, 1):
            raise ParseError("op 'add' needs label 0 or 1")
        req.label = int(label)
    if op == "delete":
        sid = obj.get("id")
        if not isinstance(sid, int) or isinstance(sid, bool) or sid < 0:
            raise ParseError("op 'delete' needs a non-negative integer id")
        req.id = sid
    return req


def replay(forest, lines):
    """Serve every request in order; returns the list of LatencyRecords."""
    records = []
    n_attrs = forest.ds.n_attrs
    for seq, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            req = parse_request(line, n_attrs)
        except ParseError as e:
            records.append(LatencyRecord(seq, "invalid", 0.0, False, str(e)))
            continue
        start = time.perf_counter_ns()
        try:
            if req.op == "add":
                result = forest.add(req.features, req.label)
            elif req.op == "delete":
                forest.delete(req.id)
                result = req.id
            else:
                result = forest.predict(req.features)
            ok = True
        except (KeyError, ValueError) as e:
            result = str(e)
            ok = False
        micros = (time.perf_counter_ns() - start) / 1000.0
        records.append(LatencyRecord(seq, req.op, micros, ok, result))
    return records


def summarize(records):
    """Per-op latency summary over successful requests.

    Returns {op: {"count", "failed", *TIME_STATS}}; the percentiles
    interpolate linearly between the closest ranks, and every time is None
    when no request of the op succeeded.
    """
    out = {}
    for op in OPS + ("invalid",):
        group = [r for r in records if r.op == op]
        if not group:
            continue
        times = np.array([r.micros for r in group if r.ok])
        row = {"count": len(group), "failed": len(group) - len(times)}
        if len(times):
            row.update(zip(TIME_STATS, map(float, (
                times.mean(), times.min(), times.max(),
                *np.percentile(times, [50, 95, 99])))))
        else:
            row.update(dict.fromkeys(TIME_STATS))
        out[op] = row
    return out


def generate_stream(ds, n_requests, mod_share=0.5, seed=0):
    """Build a deterministic request stream against a dataset's rows.

    mod_share of the requests are modifications, split evenly between
    adds (copies of random source rows, which will receive sequential new
    ids on the serving side) and deletes of ids still live in the
    simulated pool; the rest are queries of random source rows.  A delete
    drawn when the pool is empty degrades to a query.

    Returns a list of JSON lines.
    """
    if not 0.0 <= mod_share <= 1.0:
        raise ValueError("mod_share must be in [0, 1]")
    rng = np.random.default_rng(seed)
    src = ds.live_ids()
    if len(src) == 0:
        raise ValueError("dataset has no live rows to stream against")
    pool = [int(i) for i in src]
    next_id = ds.next_id
    ops = rng.choice(3, size=n_requests, p=[mod_share / 2, mod_share / 2, 1 - mod_share])
    lines = []
    for op in ops:
        if op == 0:
            row = int(src[rng.integers(len(src))])
            lines.append(json.dumps({"op": "add",
                                     "features": [float(v) for v in ds.features(row)],
                                     "label": ds.label(row)}))
            pool.append(next_id)
            next_id += 1
        elif op == 1 and pool:
            sid = pool.pop(int(rng.integers(len(pool))))
            lines.append(json.dumps({"op": "delete", "id": sid}))
        else:
            row = int(src[rng.integers(len(src))])
            lines.append(json.dumps({"op": "query",
                                     "features": [float(v) for v in ds.features(row)]}))
    return lines
