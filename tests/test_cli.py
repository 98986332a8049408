"""End-to-end command-line behavior, driven in-process through main()."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dynforest import snapshot
from dynforest.cli import main
from dynforest.snapshot import load

from test_snapshot import (drop_header_key, edit_arrays, join_snapshot, split_snapshot,
                           tamper_counts)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    pairs = {}
    for line in out.out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return code, pairs, out.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset and a trained model shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "csv": str(root / "data.csv"),
        "schema": str(root / "schema.json"),
        "model": str(root / "model.bin"),
        "root": root,
    }
    assert main(["gen-data", "--out", paths["csv"], "--schema-out", paths["schema"],
                 "--rows", "400", "--attrs", "6", "--seed", "1"]) == 0
    assert main(["train", "--csv", paths["csv"], "--schema", paths["schema"],
                 "--model", paths["model"], "--trees", "8", "--q", "0.5",
                 "--depth", "7", "--thresholds", "5", "--seed", "3"]) == 0
    return paths


# -- gen-data -----------------------------------------------------------------


def test_gen_data_writes_files_and_reports(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    schema = tmp_path / "s.json"
    code, pairs, _ = run_cli(capsys, "gen-data", "--out", str(csv),
                             "--schema-out", str(schema),
                             "--rows", "50", "--attrs", "5", "--seed", "2")
    assert code == 0
    assert pairs["rows"] == "50" and pairs["seed"] == "2"
    assert csv.exists() and schema.exists()
    assert len(csv.read_text().splitlines()) == 51  # header + rows
    json.loads(schema.read_text())


def test_gen_data_is_seed_deterministic(tmp_path, capsys):
    outs = []
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        csv = tmp_path / ("%s.csv" % name)
        code, _, _ = run_cli(capsys, "gen-data", "--out", str(csv),
                             "--schema-out", str(tmp_path / ("%s.json" % name)),
                             "--rows", "30", "--attrs", "5", "--seed", seed)
        assert code == 0
        outs.append(csv.read_bytes())
    assert outs[0] == outs[1] and outs[0] != outs[2]


# -- train / eval ---------------------------------------------------------------


def test_train_reports_configuration(workspace, capsys):
    model = str(workspace["root"] / "model2.bin")
    code, pairs, _ = run_cli(capsys, "train", "--csv", workspace["csv"],
                             "--schema", workspace["schema"], "--model", model,
                             "--trees", "8", "--q", "0.5", "--depth", "7",
                             "--thresholds", "5", "--seed", "3")
    assert code == 0
    assert pairs["rows"] == "400" and pairs["attrs"] == "6"
    assert pairs["trees"] == "8" and pairs["trees_per_sample"] == "4"
    assert pairs["lazy"] == "True"
    assert float(pairs["train_s"]) > 0
    back = load(model)
    assert back.params.n_trees == 8
    assert back.ds.n_live == 400


def test_eval_scores_the_training_data(workspace, capsys):
    code, pairs, _ = run_cli(capsys, "eval", "--csv", workspace["csv"],
                             "--schema", workspace["schema"],
                             "--model", workspace["model"])
    assert code == 0
    assert pairs["n"] == "400"
    assert float(pairs["accuracy"]) > 0.7  # axis-aligned signal is learnable
    assert pairs["headline"] in ("accuracy", "auc")
    assert float(pairs["headline_value"]) > 0.7


def test_seed_resolution_order(tmp_path, capsys, monkeypatch):
    def gen(name, *extra):
        csv = tmp_path / ("%s.csv" % name)
        code, _, _ = run_cli(capsys, "gen-data", "--out", str(csv),
                             "--schema-out", str(tmp_path / ("%s.json" % name)),
                             "--rows", "25", "--attrs", "5", *extra)
        assert code == 0
        return csv.read_bytes()

    monkeypatch.delenv("DYNFOREST_SEED", raising=False)
    default = gen("default")
    explicit0 = gen("explicit0", "--seed", "0")
    assert default == explicit0  # unset environment falls back to seed 0
    monkeypatch.setenv("DYNFOREST_SEED", "7")
    env7 = gen("env7")
    explicit7 = gen("explicit7", "--seed", "7")
    assert env7 == explicit7  # env var supplies the seed
    override = gen("override", "--seed", "8")
    assert override != env7  # explicit flag beats the environment


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_train_rejects_a_seed_outside_64_bits(workspace, tmp_path, capsys, seed):
    code, _, err = run_cli(capsys, "train", "--csv", workspace["csv"],
                           "--schema", workspace["schema"], "--model", str(tmp_path / "m.bin"),
                           "--trees", "4", "--seed", seed)
    assert code == 2
    assert "seed must be an integer" in err
    assert not (tmp_path / "m.bin").exists()


def test_bad_seed_env_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DYNFOREST_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "gen-data", "--out", str(tmp_path / "x.csv"),
                           "--schema-out", str(tmp_path / "x.json"), "--rows", "5")
    assert code == 2
    assert "DYNFOREST_SEED" in err


# -- unlearning ----------------------------------------------------------------


def test_unlearn_seq_with_explicit_ids(workspace, tmp_path, capsys):
    model_out = str(tmp_path / "after.bin")
    latency = tmp_path / "lat.jsonl"
    code, pairs, _ = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                             "--ids", "5,9,31", "--skip-naive",
                             "--model-out", model_out, "--out", str(latency))
    assert code == 0
    assert pairs["deleted"] == "3"
    assert float(pairs["mean_delete_s"]) > 0
    assert "naive_retrain_s" not in pairs
    back = load(model_out)
    for sample_id in (5, 9, 31):
        assert not back.ds.is_live(sample_id)
    rows = [json.loads(ln) for ln in latency.read_text().splitlines()]
    assert [r["result"] for r in rows] == [5, 9, 31]
    assert all(r["op"] == "delete" and r["ok"] for r in rows)


def test_unlearn_seq_reports_naive_baseline(workspace, capsys):
    code, pairs, _ = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                             "--ids", "2")
    assert code == 0
    assert float(pairs["naive_retrain_s"]) > 0
    assert float(pairs["boost"]) > 0


def test_unlearn_seq_unknown_id_exits_3(workspace, capsys):
    code, _, err = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                           "--ids", "999999", "--skip-naive")
    assert code == 3
    assert "not live" in err


def test_unlearn_requires_exactly_one_id_source(workspace, capsys):
    code, _, err = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                           "--ids", "1,2", "--count", "3", "--skip-naive")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                           "--skip-naive")
    assert code == 2


def test_unlearn_seq_ids_file_and_count(workspace, tmp_path, capsys):
    ids_file = tmp_path / "ids.txt"
    ids_file.write_text("1\n4\n\n6\n")
    code, pairs, _ = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                             "--ids-file", str(ids_file), "--skip-naive")
    assert code == 0 and pairs["deleted"] == "3"
    code, pairs, _ = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                             "--count", "7", "--skip-naive", "--seed", "1")
    assert code == 0 and pairs["deleted"] == "7"
    code, _, err = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                           "--count", "100000", "--skip-naive")
    assert code == 2 and "exceeds" in err


@pytest.mark.parametrize("command", ["unlearn-seq", "unlearn-batch"])
def test_unlearn_rejects_an_empty_id_list(workspace, tmp_path, capsys, command):
    ids_file = tmp_path / "ids.txt"
    ids_file.write_text("\n \n")
    extra = ["--skip-naive"] if command == "unlearn-seq" else []
    for source in (["--ids", ","], ["--ids", ""], ["--ids-file", str(ids_file)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, command, "--model", workspace["model"], *source,
                                   *extra)
        assert code == 2
        assert "names no sample id" in err, err


@pytest.mark.parametrize("command", ["unlearn-seq", "unlearn-batch"])
def test_unlearn_rejects_a_count_below_one(workspace, capsys, command):
    extra = ["--skip-naive"] if command == "unlearn-seq" else []
    for count in ("0", "-3"):
        code, _, err = run_cli(capsys, command, "--model", workspace["model"], "--count", count,
                               *extra)
        assert code == 2
        assert "--count must be >= 1, got %s" % count in err, err


def test_unlearn_batch_chunks_and_saves(workspace, tmp_path, capsys):
    model_out = str(tmp_path / "after.bin")
    code, pairs, _ = run_cli(capsys, "unlearn-batch", "--model", workspace["model"],
                             "--count", "20", "--batch-size", "8",
                             "--seed", "5", "--model-out", model_out)
    assert code == 0
    assert pairs["deleted"] == "20"
    assert pairs["batches"] == "3"  # 8 + 8 + 4
    back = load(model_out)
    assert back.ds.n_live == 380
    assert back.tagged_count() == 0  # every batch is flushed


def test_unlearn_batch_rejects_a_batch_size_below_one(workspace, tmp_path, capsys):
    model_out = tmp_path / "after.bin"
    for size in ("0", "-1"):
        code, _, err = run_cli(capsys, "unlearn-batch", "--model", workspace["model"],
                               "--count", "5", "--batch-size", size,
                               "--model-out", str(model_out))
        assert code == 2
        assert "--batch-size must be >= 1" in err, err
    assert not model_out.exists()


def test_unlearn_batch_unknown_id_exits_3(workspace, capsys):
    code, _, err = run_cli(capsys, "unlearn-batch", "--model", workspace["model"],
                           "--ids", "3,999999")
    assert code == 3
    assert "batch rejected" in err


# -- streams ---------------------------------------------------------------------


def test_gen_stream_and_replay(workspace, tmp_path, capsys):
    requests = tmp_path / "req.jsonl"
    latency = tmp_path / "lat.jsonl"
    model_out = str(tmp_path / "after.bin")
    code, pairs, _ = run_cli(capsys, "gen-stream", "--csv", workspace["csv"],
                             "--schema", workspace["schema"], "--out", str(requests),
                             "--requests", "60", "--mod-share", "0.4", "--seed", "2")
    assert code == 0 and pairs["requests"] == "60"
    code, pairs, _ = run_cli(capsys, "stream", "--model", workspace["model"],
                             "--requests", str(requests), "--out", str(latency),
                             "--model-out", model_out)
    assert code == 0
    assert pairs["requests"] == "60"
    counted = sum(int(v) for k, v in pairs.items() if k.endswith("_count"))
    assert counted == 60
    assert all(v == "0" for k, v in pairs.items() if k.endswith("_failed"))
    for counter in ("nodes_materialized", "tags_moved", "tags_stopped", "tags_widened"):
        assert int(pairs[counter]) >= 0
    rows = [json.loads(ln) for ln in latency.read_text().splitlines()]
    assert len(rows) == 60 and all(r["ok"] for r in rows)
    load(model_out)  # post-stream snapshot is a valid model


def test_stream_records_bad_lines_and_continues(workspace, tmp_path, capsys):
    requests = tmp_path / "req.jsonl"
    requests.write_text('{"op": "query", "features": [0,0,0,0,0,0]}\n'
                        "garbage\n"
                        '{"op": "delete", "id": 999999}\n'
                        '{"op": "query", "features": [0,0,0,0,0,0]}\n')
    code, pairs, _ = run_cli(capsys, "stream", "--model", workspace["model"],
                             "--requests", str(requests))
    assert code == 0  # per-request failures do not fail the run
    assert pairs["query_count"] == "2"
    assert pairs["invalid_count"] == "1"
    assert pairs["delete_failed"] == "1"


# -- audit ----------------------------------------------------------------------


def test_audit_passes_a_clean_model(workspace, capsys):
    code = main(["audit", "--model", workspace["model"]])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["nodes_checked"] > 0 and report["violations"] == []


def test_audit_flags_a_stale_count_that_loads_silently(workspace, tmp_path, capsys):
    def edit(arrays):
        arrays["t0.slot_b"][0, 0, 0] += 1

    bad = tmp_path / "stale.bin"
    bad.write_bytes(edit_arrays(open(workspace["model"], "rb").read(), edit))
    load(bad)  # nothing in the file's structure gives the stale cell away
    code = main(["audit", "--model", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert any("b counts stale" in v for v in report["violations"])
    bad.write_bytes(b"\x00" * 32)
    code, _, err = run_cli(capsys, "audit", "--model", str(bad))
    assert code == 2 and "magic" in err


def test_audit_flags_a_split_axis_that_disagrees_with_its_grid(workspace, capsys, monkeypatch):
    # the axis is derived at load, so no file can carry a stale one: corrupt
    # it in the loaded forest
    def load_and_corrupt(path):
        forest = load(path)
        root = forest.trees[3].root
        root.axis = (root.axis + 1) % forest.ds.n_attrs
        return forest

    monkeypatch.setattr(snapshot, "load", load_and_corrupt)
    code = main(["audit", "--model", workspace["model"]])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert any("tree 3" in v and "split axis" in v for v in report["violations"])


# -- inspect ----------------------------------------------------------------------


def test_inspect_reports_the_loaded_forest(workspace, tmp_path, capsys):
    forest = load(workspace["model"])
    for sample_id in range(0, 120, 3):
        forest.delete(sample_id)
    assert forest.tagged_count() > 0
    path = tmp_path / "tagged.bin"
    snapshot.save(forest, path)
    forest = load(path)
    code = main(["inspect", "--model", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    nodes = sum(tree.node_count() for tree in forest.trees)
    assert report["trees"] == len(forest.trees)
    assert report["nodes"] == nodes == sum(report["depth_histogram"])
    assert report["depth_histogram"][0] == len(forest.trees)
    assert report["tagged"] == forest.tagged_count()
    assert report["grid_rows"] == forest.trees[0].pool.in_use()
    assert set(report["bytes"]) == {"grid.attrs", "grid.amin", "grid.amax", "grid.thr",
                                    "grid.b", "grid.c", "ids", "dataset", "assignment"}
    assert report["bytes"]["grid.b"] == 4 * report["grid_rows"] * forest.trees[0].p * 5
    assert report["total_bytes"] == sum(report["bytes"].values())
    path.write_bytes(b"\x00" * 32)
    code, _, err = run_cli(capsys, "inspect", "--model", str(path))
    assert code == 2 and "magic" in err


# -- failure modes ----------------------------------------------------------------


def test_missing_files_exit_2(workspace, tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--csv", workspace["csv"],
                           "--schema", workspace["schema"],
                           "--model", str(tmp_path / "nope.bin"))
    assert code == 2 and "error:" in err
    code, _, _ = run_cli(capsys, "train", "--csv", str(tmp_path / "nope.csv"),
                         "--schema", workspace["schema"],
                         "--model", str(tmp_path / "m.bin"))
    assert code == 2
    code, _, _ = run_cli(capsys, "stream", "--model", workspace["model"],
                         "--requests", str(tmp_path / "nope.jsonl"))
    assert code == 2


def test_schema_data_mismatch_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    code, _, err = run_cli(capsys, "train", "--csv", str(bad),
                           "--schema", workspace["schema"],
                           "--model", str(tmp_path / "m.bin"))
    assert code == 2
    assert "error:" in err


def test_corrupt_model_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 32)
    code, _, err = run_cli(capsys, "eval", "--csv", workspace["csv"],
                           "--schema", workspace["schema"], "--model", str(bad))
    assert code == 2 and "magic" in err


def test_model_missing_header_key_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(drop_header_key(open(workspace["model"], "rb").read(), "forest"))
    code, _, err = run_cli(capsys, "unlearn-seq", "--model", str(bad),
                           "--ids", "1", "--skip-naive")
    assert code == 2 and "malformed" in err


def test_model_with_an_unallocatable_id_counter_exits_2(workspace, tmp_path, capsys):
    # 2**50 ids cannot be allocated under any overcommit setting: it fails at once
    header, body = split_snapshot(open(workspace["model"], "rb").read())
    header["data"]["next_id"] = 2**50
    bad = tmp_path / "bad.bin"
    bad.write_bytes(join_snapshot(header, body))
    code, _, err = run_cli(capsys, "audit", "--model", str(bad))
    assert code == 2 and "cannot be allocated" in err


def test_model_with_corrupt_child_index_exits_2(workspace, tmp_path, capsys):
    def edit(arrays):
        arrays["t0.children"][0] = (10**6, 10**6)

    bad = tmp_path / "bad.bin"
    bad.write_bytes(edit_arrays(open(workspace["model"], "rb").read(), edit))
    code, _, err = run_cli(capsys, "unlearn-seq", "--model", str(bad),
                           "--ids", "1", "--skip-naive")
    assert code == 2 and "child index" in err


def test_model_with_short_keys_exits_2(workspace, tmp_path, capsys):
    tagged = tmp_path / "tagged.bin"
    code, _, _ = run_cli(capsys, "unlearn-seq", "--model", workspace["model"],
                         "--ids", ",".join(map(str, range(0, 80, 2))), "--skip-naive",
                         "--model-out", str(tagged))
    assert code == 0
    t = next(t for t, tree in enumerate(load(tagged).trees) if tree.n_tagged)

    def edit(arrays):
        arrays["t%d.keys" % t] = arrays["t%d.keys" % t][:-1]

    bad = tmp_path / "bad.bin"
    bad.write_bytes(edit_arrays(tagged.read_bytes(), edit))
    code, _, err = run_cli(capsys, "unlearn-seq", "--model", str(bad),
                           "--ids", "1", "--skip-naive")
    assert code == 2 and "keys has shape" in err


def test_model_with_corrupt_assignment_exits_2(workspace, tmp_path, capsys):
    def edit(arrays):
        # tree 0 drops the last id of its last childless node
        arrays["t0.ids"] = arrays["t0.ids"][:-1]
        arrays["t0.ids_len"][np.flatnonzero(arrays["t0.ids_len"])[-1]] -= 1

    bad = tmp_path / "bad.bin"
    bad.write_bytes(edit_arrays(open(workspace["model"], "rb").read(), edit))
    code, _, err = run_cli(capsys, "unlearn-seq", "--model", str(bad),
                           "--ids", "1", "--skip-naive")
    assert code == 2 and "not held by exactly" in err


def test_model_with_bad_draws_or_splits_exits_2(workspace, tmp_path, capsys):
    def huge_attr(arrays):
        arrays["t0.slot_attrs"][0, -1] = 10**6

    def tagged_split(arrays):
        arrays["t0.flags"][0] |= 1
        arrays["t0.keys"] = np.array([7], np.uint64)

    bad = tmp_path / "bad.bin"
    for edit, match in ((huge_attr, "slot_attrs"), (tagged_split, "split node is tagged")):
        bad.write_bytes(edit_arrays(open(workspace["model"], "rb").read(), edit))
        code, _, err = run_cli(capsys, "audit", "--model", str(bad))
        assert code == 2 and match in err


@pytest.mark.parametrize("key", ["b", "c"])
def test_model_with_counts_that_cannot_be_counts_exits_2(workspace, tmp_path, capsys, key):
    bad = tmp_path / "bad.bin"
    edit = tamper_counts(load(workspace["model"]), key)
    bad.write_bytes(edit_arrays(open(workspace["model"], "rb").read(), edit))
    for command in ("audit", "inspect"):
        code, _, err = run_cli(capsys, command, "--model", str(bad))
        assert code == 2 and "slot_%s holds a count" % key in err


def test_invalid_hyperparameters_exit_2(workspace, tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--csv", workspace["csv"],
                           "--schema", workspace["schema"],
                           "--model", str(tmp_path / "m.bin"), "--q", "0")
    assert code == 2 and "occupancy" in err
    code, _, err = run_cli(capsys, "train", "--csv", workspace["csv"],
                           "--schema", workspace["schema"],
                           "--model", str(tmp_path / "m.bin"), "--depth", "0")
    assert code == 2 and "max_depth" in err


# -- console entry points ----------------------------------------------------------


def _gen_data_smoke(command, tmp_path):
    out = subprocess.run([*command, "gen-data",
                          "--out", str(tmp_path / "d.csv"),
                          "--schema-out", str(tmp_path / "s.json"),
                          "--rows", "10", "--attrs", "5"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "rows=10" in out.stdout


def test_module_invocation_smoke(tmp_path):
    _gen_data_smoke([sys.executable, "-m", "dynforest"], tmp_path)


def test_console_script_smoke(tmp_path):
    """The `dynforest` script that pyproject.toml declares runs gen-data.

    An installed `dynforest` on the PATH is run as it is. The declared entry
    point is also started the way pip's generated wrapper starts it (import the
    target, name the program `dynforest`, exit with the target's return value),
    so a plain checkout checks it too.
    """
    installed = shutil.which("dynforest")
    if installed is not None:
        _gen_data_smoke([installed], tmp_path)
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["dynforest"]
    module, _, attr = target.partition(":")
    wrapper = (f"import sys; from {module} import {attr.split('.')[0]}; "
               f"sys.argv[0] = 'dynforest'; sys.exit({attr}())")
    _gen_data_smoke([sys.executable, "-c", wrapper], tmp_path)
