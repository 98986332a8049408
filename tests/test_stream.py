"""Request stream wire format, replay semantics, and the generator."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dynforest.data import ParseError
from dynforest.forest import Forest, ForestParams
from dynforest.stream import (LatencyRecord, generate_stream, parse_request,
                              replay, summarize)
from dynforest.synth import make_dataset
from dynforest.tree import TreeParams


def small_forest(seed=0, n=300):
    ds = make_dataset(n, d=5, seed=seed)
    params = ForestParams(n_trees=6, occupancy=0.5, seed=seed,
                          tree=TreeParams(max_depth=6, n_thresholds=5))
    return ds, Forest.train(ds, params)


# -- parsing ------------------------------------------------------------------


def test_parse_valid_requests():
    add = parse_request('{"op": "add", "features": [1, 2.5, 3], "label": 1}', 3)
    assert add.op == "add" and add.label == 1
    assert add.features.tolist() == [1.0, 2.5, 3.0]
    dele = parse_request('{"op": "delete", "id": 7}', 3)
    assert dele.op == "delete" and dele.id == 7
    query = parse_request('{"op": "query", "features": [0, 0, 0]}', 3)
    assert query.op == "query" and query.label is None


@pytest.mark.parametrize("line,why", [
    ("{not json", "not valid JSON"),
    ('"just a string"', "JSON object"),
    ('[1, 2]', "JSON object"),
    ('{"op": "upsert"}', "unknown op"),
    ('{"op": "query"}', "feature list"),
    ('{"op": "query", "features": [1, 2]}', "feature list"),          # short
    ('{"op": "query", "features": [1, 2, "x"]}', "feature list"),     # non-numeric
    ('{"op": "query", "features": [1, 2, true]}', "feature list"),    # bool
    ('{"op": "query", "features": [1, 2, NaN]}', "finite"),
    ('{"op": "add", "features": [Infinity, 2, 3], "label": 1}', "finite"),
    ('{"op": "add", "features": [1, -Infinity, 3], "label": 0}', "finite"),
    ('{"op": "query", "features": [1, 2, 1e999]}', "finite"),          # overflows to inf
    ('{"op": "add", "features": [1, 2, 3]}', "label"),
    ('{"op": "add", "features": [1, 2, 3], "label": 2}', "label"),
    ('{"op": "add", "features": [1, 2, 3], "label": true}', "label"),
    ('{"op": "delete"}', "integer id"),
    ('{"op": "delete", "id": -1}', "integer id"),
    ('{"op": "delete", "id": 1.5}', "integer id"),
    ('{"op": "delete", "id": true}', "integer id"),
])
def test_parse_rejects_malformed_requests(line, why):
    with pytest.raises(ParseError, match=why):
        parse_request(line, 3)


def test_latency_record_json_shape():
    rec = LatencyRecord(seq=4, op="query", micros=12.34567, ok=True, result=0.25)
    obj = json.loads(rec.to_json())
    assert obj == {"seq": 4, "op": "query", "micros": 12.346,
                   "ok": True, "result": 0.25}


# -- replay -------------------------------------------------------------------


def test_replay_serves_in_order_and_survives_failures():
    ds, forest = small_forest()
    row = [float(v) for v in ds.X[0]]
    lines = [
        json.dumps({"op": "query", "features": row}),
        "",  # blank lines are skipped without a record
        json.dumps({"op": "add", "features": row, "label": 1}),
        "this is not json",
        json.dumps({"op": "delete", "id": 999999}),  # unknown id: recorded failure
        json.dumps({"op": "delete", "id": 3}),
        json.dumps({"op": "query", "features": row}),
    ]
    records = replay(forest, lines)
    assert [r.seq for r in records] == [0, 2, 3, 4, 5, 6]
    assert [r.op for r in records] == ["query", "add", "invalid", "delete",
                                       "delete", "query"]
    assert [r.ok for r in records] == [True, True, False, False, True, True]
    assert records[1].result == ds.next_id - 1  # the id the add minted
    assert not ds.is_live(3)
    assert records[-1].result == pytest.approx(forest.predict(np.asarray(row)))
    assert all(r.micros >= 0.0 for r in records)


def test_replay_matches_direct_calls():
    ds1, f1 = small_forest(seed=1)
    ds2, f2 = small_forest(seed=1)
    row_a = [float(v) for v in ds1.X[4]]
    row_b = [float(v) for v in ds1.X[9]]
    lines = [
        json.dumps({"op": "add", "features": row_a, "label": 0}),
        json.dumps({"op": "delete", "id": 17}),
        json.dumps({"op": "add", "features": row_b, "label": 1}),
        json.dumps({"op": "query", "features": row_a}),
    ]
    records = replay(f1, lines)
    sid_a = f2.add(np.asarray(row_a), 0)
    f2.delete(17)
    sid_b = f2.add(np.asarray(row_b), 1)
    assert records[0].result == sid_a and records[2].result == sid_b
    assert records[3].result == pytest.approx(f2.predict(np.asarray(row_a)))
    X = make_dataset(30, d=5, seed=60).X[:30]
    assert np.array_equal(f1.predict_many(X), f2.predict_many(X))


# -- summaries ----------------------------------------------------------------


def test_summarize_groups_and_counts():
    records = [
        LatencyRecord(0, "query", 10.0, True, 0.5),
        LatencyRecord(1, "query", 30.0, True, 0.5),
        LatencyRecord(2, "delete", 5.0, True, 3),
        LatencyRecord(3, "delete", 99.0, False, "dead"),
        LatencyRecord(4, "invalid", 0.0, False, "bad line"),
    ]
    out = summarize(records)
    assert out["query"] == {"count": 2, "failed": 0, "mean_us": 20.0,
                            "min_us": 10.0, "max_us": 30.0, "p50_us": 20.0,
                            "p95_us": 29.0, "p99_us": 29.8}
    assert out["delete"]["count"] == 2 and out["delete"]["failed"] == 1
    assert out["delete"]["mean_us"] == 5.0  # failures excluded from timing
    assert out["delete"]["p99_us"] == 5.0
    assert out["invalid"]["count"] == 1
    assert all(out["invalid"][stat] is None
               for stat in ("mean_us", "min_us", "max_us", "p50_us", "p95_us", "p99_us"))
    assert "add" not in out


def test_summarize_percentiles_follow_the_latency_ranks():
    # 1..100 us: linear interpolation between closest ranks
    records = [LatencyRecord(i, "add", float(i + 1), True, i) for i in range(100)]
    records.append(LatencyRecord(100, "add", 1e9, False, "failed"))
    row = summarize(records)["add"]
    assert row["p50_us"] == pytest.approx(50.5)
    assert row["p95_us"] == pytest.approx(95.05)
    assert row["p99_us"] == pytest.approx(99.01)
    assert row["max_us"] == 100.0  # the failed request's time is ignored
    assert row["min_us"] <= row["p50_us"] <= row["p95_us"] <= row["p99_us"] <= row["max_us"]


# -- generation ---------------------------------------------------------------


def test_generate_stream_is_deterministic():
    ds = make_dataset(100, d=5, seed=2)
    a = generate_stream(ds, 200, mod_share=0.5, seed=9)
    b = generate_stream(ds, 200, mod_share=0.5, seed=9)
    c = generate_stream(ds, 200, mod_share=0.5, seed=10)
    assert a == b and a != c
    assert len(a) == 200


def test_generate_stream_mod_share_zero_is_all_queries():
    ds = make_dataset(50, d=5, seed=3)
    lines = generate_stream(ds, 100, mod_share=0.0, seed=0)
    assert all(json.loads(ln)["op"] == "query" for ln in lines)


def test_generate_stream_respects_share_roughly():
    ds = make_dataset(200, d=5, seed=4)
    lines = generate_stream(ds, 2000, mod_share=0.5, seed=1)
    ops = [json.loads(ln)["op"] for ln in lines]
    mods = sum(op != "query" for op in ops)
    assert 850 < mods < 1150  # ~1000 expected


def test_generate_stream_replays_without_failures():
    # the generator tracks the serving side's id sequence, so every delete
    # names an id that is live when it arrives
    ds, forest = small_forest(seed=5)
    lines = generate_stream(ds, 400, mod_share=0.6, seed=2)
    records = replay(forest, lines)
    assert len(records) == 400
    assert all(r.ok for r in records)


def test_generate_stream_validates_inputs():
    ds = make_dataset(30, d=5, seed=6)
    with pytest.raises(ValueError, match="mod_share"):
        generate_stream(ds, 10, mod_share=1.5)
    for sample_id in list(ds.live_ids()):
        ds.tombstone(int(sample_id))
    with pytest.raises(ValueError, match="live rows"):
        generate_stream(ds, 10)