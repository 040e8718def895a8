"""End-to-end engine throughput: requests/second through ``simulate``.

Not a paper figure — this measures how fast the *reproduction* turns
trace requests into ``RunResult``s, which bounds every figure sweep.
Each cell times ``simulate(trace, config, tracker)`` end to end
(tracker + controller construction included, trace generation
excluded), takes the best of ``--reps`` repetitions, and appends one
entry to ``BENCH_engine_throughput.json`` at the repository root so
successive PRs accumulate a perf trajectory.

Run directly (honours ``REPRO_SCALE``)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --label after-fast-path --reps 5

The headline cell is ``hydra/fast`` on the benchmark configuration —
the number the hot-path optimization pass is judged on.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from _common import bench_config

from repro.sim.simulator import simulate, trace_for_workload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine_throughput.json"

#: (tracker, engine) cells measured, documentation order. Hydra on the
#: fast engine is the headline; the others give context (baseline =
#: controller-only cost, graphene/cra = other tracker families,
#: cra and the hydra-nogct/hydra-norcc ablations = the metadata-traffic
#: path, the queued cell = scheduler overhead).
DEFAULT_CELLS = (
    ("baseline", "fast"),
    ("hydra", "fast"),
    ("graphene", "fast"),
    ("cra", "fast"),
    ("hydra-nogct", "fast"),
    ("hydra-norcc", "fast"),
    ("hydra", "queued"),
)


def cells_for_engines(engines) -> tuple:
    """Restrict DEFAULT_CELLS to the requested engines, keeping order."""
    wanted = set(engines)
    cells = tuple(c for c in DEFAULT_CELLS if c[1] in wanted)
    if not cells:
        raise SystemExit(
            f"no benchmark cells for engines {sorted(wanted)!r}"
        )
    return cells


def measure_cell(config, tracker: str, engine: str, workload: str, reps: int):
    """Best-of-``reps`` wall time for one simulate() cell."""
    cell_config = config.with_engine(engine)
    trace = trace_for_workload(cell_config, workload)
    best = float("inf")
    requests = 0
    for _ in range(reps):
        start = time.perf_counter()
        result = simulate(trace, cell_config, tracker)
        elapsed = time.perf_counter() - start
        requests = result.requests
        if elapsed < best:
            best = elapsed
    return {
        "seconds": round(best, 6),
        "requests": requests,
        "requests_per_sec": round(requests / best, 1),
    }


def run(label: str, workload: str, reps: int, cells=DEFAULT_CELLS) -> dict:
    config = bench_config()
    entry = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "workload": workload,
        "reps": reps,
        "scale": config.scale,
        "cache_key": config.cache_key(),
        "cells": {},
    }
    for tracker, engine in cells:
        key = f"{tracker}/{engine}"
        entry["cells"][key] = measure_cell(config, tracker, engine, workload, reps)
        cell = entry["cells"][key]
        print(
            f"{key:<16} {cell['seconds']:>9.3f} s "
            f"{cell['requests_per_sec']:>12,.0f} req/s"
        )
    return entry


def append_entry(entry: dict, path: Path = BENCH_PATH) -> None:
    payload = {"runs": []}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError):
            pass
    payload.setdefault("runs", []).append(entry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nappended run {entry['label']!r} to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="dev", help="name this run carries in the trajectory"
    )
    parser.add_argument(
        "--workload",
        default="GUPS",
        help="trace to replay (GUPS = random-access heavy, the stress case)",
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="repetitions per cell (best kept)"
    )
    parser.add_argument(
        "--no-record", action="store_true",
        help="print only; do not touch BENCH_engine_throughput.json",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        default=None,
        metavar="ENGINE",
        help="measure only cells on these engines (default: all"
        " DEFAULT_CELLS); e.g. --engines queued",
    )
    args = parser.parse_args(argv)
    cells = (
        cells_for_engines(args.engines)
        if args.engines is not None
        else DEFAULT_CELLS
    )
    entry = run(args.label, args.workload, args.reps, cells=cells)
    if not args.no_record:
        append_entry(entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
