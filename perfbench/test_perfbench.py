"""Tests of the benchmark itself, on the tiny smoke variants of the workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bmetric.cli as cli  # noqa: E402
import bmetric.constants  # noqa: E402
import bmetric.shortest_path  # noqa: E402
from bmetric import random_bmetric  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ("chain-pipeline-smoke", "doubling-exact-smoke", "weak-exhaustive-smoke")


def run(workload: str, trace: int, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", SMOKE)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", SMOKE)
def test_traced_runs_emit_per_layer_metrics_with_repeatable_counts(workload):
    first, second = run(workload, trace=1, seed=5), run(workload, trace=1, seed=5)
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert counts(first) == counts(second)
    assert all(isinstance(v, int) for v in counts(first).values())
    assert first["metrics"]["cli.calls"]["value"] == len(WORKLOADS[workload].jobs)


def test_corrupted_reports_count_as_failed(tmp_path, monkeypatch):
    name = "chain-pipeline-smoke"
    reference = json.loads((HERE / "reference.json").read_text())["workloads"][name]
    runner = Runner(WORKLOADS[name], tmp_path, cli, checks, reference)
    runner.make_inputs(checks.REFERENCE_SEED)
    emit = cli._emit

    def corrupting_emit(args, payload):
        report = payload["report"]
        if payload["manifest"]["command"] == "constants":
            report["relaxation_K"] = 0.5  # breaks an invariant
        elif report.get("theorem") == "4.3":
            report["c"] *= 1.0 + 1e-6  # still >= 1: only the reference catches it
        emit(args, payload)

    monkeypatch.setattr(cli, "_emit", corrupting_emit)
    runner.run_round()
    failed = {r.job.key for r in runner.results if r.problems}
    assert failed == {f"{i} {c}" for i in ("bmetric-a", "bmetric-b")
                      for c in ("constants", "verify --theorem 4.3")}


def test_remetrize_check_rejects_a_non_metric_D():
    d = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    report = {"p": 1.0, "sandwich_hi": 1.0, "D": d.tolist()}
    problems = checks.invariant_problems(("remetrize", "--eps", "0.5"), report, d)
    assert any("triangle" in p for p in problems)


def test_missing_trace_targets_are_listed_and_the_rest_traced():
    extra = (spans.Target("kernels.floyd_warshall", "bmetric.kernels", "floyd_warshall", ""),
             spans.Target("embed.Gone.method", "bmetric.embed", "Gone.method", ""))
    tracer = spans.Tracer(spans.TARGETS + extra)
    assert tracer.missing == ["kernels.floyd_warshall", "embed.Gone.method"]
    original = bmetric.shortest_path.floyd_warshall
    space = random_bmetric(6, 2.0, 0)
    tracer.install()
    try:
        bmetric.constants.polygonal_constant(space)
    finally:
        tracer.uninstall()
    assert bmetric.constants.floyd_warshall is original
    folded = tracer.fold()
    assert folded["constants.polygonal_constant"][0] == 1
    assert folded["shortest_path.floyd_warshall"][0] == 1  # seen through constants' binding


def test_a_job_cut_off_by_the_wall_clock_cap_counts_as_failed(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "chain-pipeline-smoke",
         "--seed", "1", "--seconds", "100", "--trace", "0", "--src", str(ROOT / "src"),
         "--cap", "2", "--workdir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 1 and not result["correct"]
    assert list(tmp_path.iterdir()) == []  # the run removed its inputs and reports


def test_without_the_library_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
