"""Smoke test of the benchmark: every workload on a 16x16 grid for two operations.

    python3 -m pytest perfbench/tests

It keeps the harness from rotting: each workload must run, check out
against reference.json and print exactly the metrics BENCHMARK.json names.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE.parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py defines; BENCHMARK.json runs all but verify (NOTES.md)
WORKLOADS = ["verify", "density-square-balanced", "maps-1024", "hom-sweep"]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _smoke(workload: str, trace: int, seed: int = 0) -> dict:
    return _result(_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--grid", "16", "--max-ops", "2",
    ))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_checks_out_and_reports_its_metrics(workload, trace):
    result = _smoke(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_seeded_inputs_check_out_away_from_the_reference_seed():
    for workload in ("maps-1024", "hom-sweep"):
        assert _smoke(workload, trace=0, seed=7)["failed"] == 0


def test_counts_repeat_across_traced_runs():
    first, second = (_smoke("verify", trace=1)["metrics"] for _ in range(2))
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    assert counts and all(first[k] == second[k] for k in counts)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""
