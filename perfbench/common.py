"""Workload definitions and helpers shared by the benchmark's processes.

Everything here is importable without the program under test; the
program's own modules are imported only after :func:`use_checkout_src`
has put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Root of the checkout the benchmark runs in (the parent of this
#: directory); every file the benchmark reads or writes is under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run: result caches, service state, spans.
WORK = ROOT / ".bench_work"

#: ``SystemConfig.seed`` the program uses when none is given; the
#: benchmark's default seed, at which cell digests are pinned.
DEFAULT_SEED = 2022

#: The two cold grids: tracker x workload cells simulated on a fresh
#: result cache, through ``ExperimentRunner.run_grid``. Scale 1/128 keeps
#: a pass to a few seconds: on a shared host single passes swing by tens
#: of percent, so a run needs many of them for a steady median.
GRIDS: Dict[str, Dict[str, Any]] = {
    "grid-fastpath": {
        "trackers": ["baseline", "hydra", "graphene", "para"],
        "workloads": ["GUPS", "mcf", "pr_t", "xz", "fluid", "lbm"],
        "scale_denominator": 128,
        # Two workers, not one: a lone process runs at the speed of
        # whichever virtual CPU it lands on, and on a shared host the two
        # differ by up to half; two busy workers average them.
        "jobs": 2,
    },
    "grid-metadata": {
        # Longest cells first, so the pool's tail stays short.
        "trackers": ["hydra-nogct", "cra", "hydra-norcc"],
        "workloads": ["mcf", "xz", "pr_t", "GUPS"],
        "scale_denominator": 128,
        "jobs": 2,
    },
}

#: The warm service: set-up fills a cache with these trackers over
#: every workload, then closed-loop clients fetch cached cells.
SERVICE: Dict[str, Any] = {
    "trackers": ["baseline", "hydra"],
    "workloads": None,  # all 36
    "scale_denominator": 128,
    "clients": 2,
    "cells_per_job": 4,
    "setups": 3,
}

#: Shrunken variants for the harness smoke test (``--tiny``).
TINY_GRIDS: Dict[str, Dict[str, Any]] = {
    "grid-fastpath": {**GRIDS["grid-fastpath"], "trackers": ["baseline", "hydra"],
                      "workloads": ["GUPS", "mcf"], "scale_denominator": 1024},
    "grid-metadata": {**GRIDS["grid-metadata"], "trackers": ["cra"],
                      "workloads": ["GUPS", "mcf"], "scale_denominator": 1024},
}
TINY_SERVICE: Dict[str, Any] = {
    **SERVICE,
    "workloads": ["GUPS", "mcf", "pr_t", "xz", "lbm"],
    "scale_denominator": 1024,
    "clients": 1,
    "cells_per_job": 2,
    "setups": 2,
}

WORKLOADS = ("grid-fastpath", "grid-metadata", "service-warm")


def metric_units(kind: str) -> Dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def grid_definition(workload: str, tiny: bool) -> Dict[str, Any]:
    return (TINY_GRIDS if tiny else GRIDS)[workload]


def service_definition(tiny: bool) -> Dict[str, Any]:
    return TINY_SERVICE if tiny else SERVICE


def use_checkout_src() -> None:
    """Import the program from this checkout, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    path = str(SRC)
    if sys.path[:1] != [path]:
        sys.path.insert(0, path)


def child_env(tmp_dir: Path) -> Dict[str, str]:
    """Environment for the benchmark's child processes.

    Drops the program's ``REPRO_*`` knobs (cache dir, default jobs,
    scale, observability) so only the benchmark's arguments apply,
    and points temporary files into the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp_dir)
    return env


def canonical(payload: Dict[str, Any]) -> str:
    """The byte-exact form two results are compared in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()[:16]


def cell_id(tracker: str, workload: str) -> str:
    return f"{tracker}|{workload}"


def split_cell_id(cid: str) -> Tuple[str, str]:
    tracker, _, workload = cid.partition("|")
    return tracker, workload


def load_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    """workload -> seed -> cell id -> pinned digest."""
    path = Path(__file__).resolve().parent / "pins.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def emit(payload: Any) -> None:
    """One JSON line on stdout: how child processes report back."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> Any:
    lines: List[str] = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("child process printed nothing")
    return json.loads(lines[-1])
