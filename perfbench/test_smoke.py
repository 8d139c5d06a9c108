"""Smoke tests of the benchmark at a tiny scale.

Run from the root of a checkout (about two minutes on two cores)::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--scale", "0.2", "--seconds", "1", "--setup-reps", "1"]

sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
from tracing import LAYER_TIMES  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Traced and untraced hotspot sets are equal, and on the serial
    # workloads the layers cover >= 95% of the traced wall: either
    # failing marks an operation failed.
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= (5 if trace else 2)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(values[m["name"]] > 0 for m in declared)
        return
    layer_times = [values[metric] for metric in LAYER_TIMES.values()]
    assert sum(layer_times) + values["unattributed_s"] == pytest.approx(values["trace.wall_s"])
    # Wrongly nested spans or double counting would drive a self time or
    # the remainder below zero, or the coverage down.
    assert min(layer_times) >= 0.0
    assert values["unattributed_s"] >= 0.0
    if workload.endswith("-serial"):
        assert values["trace.coverage"] >= 0.95


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("--workload", SPEC["workloads"][0]["name"], *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
