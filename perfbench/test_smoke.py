"""Smoke test of the benchmark harness at a tiny size.

Run from the root of a checkout (about half a minute)::

    python3 -m pytest perfbench/test_smoke.py

``--tiny`` shrinks every grid and the service to a few cells at scale
1/1024, so this checks the harness — the output contract, the checks,
the traced run — not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5",
                     "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in expected:
        assert f"\n{name} " in "\n" + proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children_and_rollups():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def hot(self):
            return None

    original = Layer.hot
    tracer.wrap_hot(Layer, "hot", "hot")
    with tracer.span("root", trace_id="job-1"):  # opens at t=0
        with tracer.span("child"):  # t=1 .. t=2
            pass
        Layer().hot()  # t=3 .. t=4
    tracer.restore()  # root closed at t=5
    assert Layer.hot is original
    assert tracer.self_times() == {"root": 3.0, "child": 1.0, "hot": 1.0}
    assert {span[2] for span in tracer.spans} == {"job-1"}
