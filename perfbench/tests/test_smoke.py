"""Seconds-long runs of every workload at reduced sizes, in fresh processes."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(workload, trace, key):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert "traced outputs differ" not in proc.stdout
        assert result["metrics"]["bench.missing_spans"]["value"] == 0


def test_without_program_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "saw-n200", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_describes_every_benchmark_entry():
    from perfbench.run import DEFAULT_SEED

    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert ref["default_seed"] == DEFAULT_SEED
    assert set(ref["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    assert list(ref["end_to_end"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert list(ref["per_layer"]) == [m["name"] for m in BENCH["per_layer"]]
    e2e = set(ref["end_to_end"])
    for entry in ref["per_layer"].values():
        for target in entry["moves"]:
            metric, _, workload = target.partition(" on ")
            assert metric in e2e and workload in ref["workloads"]


def test_traced_run_writes_spans_with_parents(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = run("--workload", "saw-n200", "--seconds", "0.5", "--trace", "1", "--smoke", "--spans", str(spans))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    by_id = {r["id"]: r for r in records}
    assert {"bench.setup", "bench.outputs", "counting.CountTable.__init__",
            "sampling.sample_low_girth_walk_from"} <= {r["name"] for r in records}
    for r in records:
        assert set(r) == {"id", "name", "parent", "start", "end", "status"}
        assert r["start"] <= r["end"]
        if r["parent"] is not None:
            parent = by_id[r["parent"]]
            assert parent["start"] <= r["start"] and r["end"] <= parent["end"]
