"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench/tests -q

Checks that BENCHMARK.json matches spec.py, that every end-to-end and
per-layer metric appears with its unit, that the solver metrics are
printed by name where a workload solves, that two traced runs give the
same call counts, and that the benchmark refuses to run without the
library's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import spec  # noqa: E402

TIMEOUT_S = 180


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"][:2] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} <= set(spec.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == spec.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.per_layer_metrics()


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_untraced_run_prints_every_metric(workload):
    proc = _run(workload, trace=0)
    metrics = _result(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        k: unit for k, (unit, _) in spec.END_TO_END.items()
    }
    assert all(v["value"] > 0 for v in metrics.values())
    for name, (unit, _) in spec.SOLVE_METRICS.items():
        printed = re.search(rf"^{name} = \S+ {re.escape(unit)}$", proc.stdout, re.M)
        assert (printed is not None) == (workload in spec.SOLVE_WORKLOADS), name
    assert re.search(r'^provenance .*"git_sha"', proc.stdout, re.M)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    first, second = (_result(_run(workload, trace=1))["metrics"] for _ in range(2))
    assert {k: v["unit"] for k, v in first.items()} == spec.per_layer_metrics()
    exact = [k for k in first if k.endswith(".calls") or k.startswith("outcome.")]
    exact.append("estimators.newton_iters_mean")
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    assert first["models.g_rows.calls"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("scaling_small_n", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
