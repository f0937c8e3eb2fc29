"""Self-tests of the benchmark on tiny slices of each workload.

    python3 -m pytest -q perfbench/smoke.py

Each workload runs in smoke mode (intro_N5 at p=5 through the CLI, two
corpus members, one grid row, four matrices per space and lemma92 up to
ell=50), untraced and traced.  The tests check the result line against
BENCHMARK.json, that a corrupted golden entry trips the gate, and that a
directory holding only the benchmark refuses to run.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

import common
import run
import tracing

BENCH = common.load_json(common.ROOT / "BENCHMARK.json")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_run(workload, trace, *extra, cwd=common.ROOT):
    cmd = ([sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace)] + list(extra))
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == tracing.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = ([w["name"] for w in BENCH["workloads"]]
             + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = bench_run(workload, 0, "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for m in BENCH["end_to_end"]:
        assert m["name"] in proc.stderr      # the table names every metric
    assert "fail_frac" in proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = bench_run(workload, 1, "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert res["correct"] is True
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert metrics["cli.import_s"] > 0 and metrics["trace.wall_s"] > 0
    fastcount_s = [v for k, v in metrics.items()
                   if k.startswith("fastcount.") and k.endswith(".s")]
    if workload == "family_grid":
        assert not any(fastcount_s)
        assert metrics["families.cells"] == 4
        assert metrics["reduction.local_reduce.calls"] > 0
    else:
        assert metrics["fastcount.batch_traces.top.s"] > 0
        assert metrics["fastcount.places.d3"] > 0
    if workload == "orth":
        assert metrics["orthogonal.spinor_norm.calls"] == 24
        assert metrics["orthogonal.mat_pow_mod.s"] > 0


def corrupt(golden, workload):
    """Change one golden value of the workload's smoke slice."""
    g = copy.deepcopy(golden)
    if workload == "lfun_top":
        g["lfun_top_smoke"]["output"]["L"]["coefficients"][1] += 1
    elif workload == "lfun_corpus":
        g["lfun_corpus"][0]["invariants"]["c_E"] += 2
    elif workload == "family_grid":
        g["family_grid"][0]["digest"] = "0" * 64
    else:
        res = g["orth"]["lemma92"]["results"]
        res[0]["witness"] = "m=0/F_0"
    return g


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_golden_trips_the_gate(workload):
    common.OUT.mkdir(exist_ok=True)
    path = common.OUT / f"corrupt-{workload}.json"
    path.write_text(json.dumps(corrupt(common.load_json(common.GOLDEN),
                                       workload)))
    try:
        proc = bench_run(workload, 0, "--smoke", "--golden", str(path))
    finally:
        path.unlink()
    assert proc.returncode == 1, proc.stderr
    res = result_of(proc)
    assert res["correct"] is False
    assert 1 <= res["failed"] <= res["attempted"]
    assert "differ" in proc.stderr


def test_refuses_to_run_without_the_program():
    bare = common.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(common.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench_run("orth", 0, cwd=bare)
        assert proc.returncode not in (0, 1)
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
