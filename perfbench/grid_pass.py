"""One cold grid pass in a fresh interpreter (a child of ``run.py``).

Usage: ``python grid_pass.py '<json args>'`` with keys ``workload``,
``seed``, ``tiny``, ``jobs``, ``mode`` (``plain`` or ``traced``),
``work`` (a scratch directory of its own) and ``spawn_t`` (the
parent's ``time.monotonic()`` when it started this process).

The pass builds the config and runner on a fresh cache directory (its
set-up), runs ``ExperimentRunner.run_grid`` once (the timed region),
then checks every cell and prints one JSON line: timings, the cells'
digests and any failures. A traced pass also reports the per-layer
metrics and the spans behind them.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import (
    cell_id,
    digest,
    emit,
    grid_definition,
    use_checkout_src,
)


def main(args: dict) -> None:
    use_checkout_src()
    from repro.sim.cache import ResultCache
    from repro.sim.config import SystemConfig
    from repro.sim.grid import GridSpec
    from repro.sim.results import RunResult
    from repro.sim.sweep import ExperimentRunner, cell_key

    definition = grid_definition(args["workload"], args["tiny"])
    traced = args["mode"] == "traced"
    jobs = args["jobs"]
    work = Path(args["work"])
    cache_dir = work / "cache"
    cache_dir.mkdir(parents=True)
    manifest = work / "manifest.jsonl" if traced else None
    config = SystemConfig(
        scale=1.0 / definition["scale_denominator"], seed=args["seed"]
    )
    spec = GridSpec(
        trackers=tuple(definition["trackers"]),
        workloads=tuple(definition["workloads"]),
        config=config,
    )
    runner = ExperimentRunner(
        config, cache_dir=cache_dir, jobs=jobs, manifest_path=manifest
    )
    ready_s = time.monotonic() - args["spawn_t"]

    tracer = capture = None
    if traced:
        from layers import ColdCapture, install_cold
        from tracing import Tracer

        tracer, capture = Tracer(), ColdCapture()
        install_cold(tracer, capture)
    try:
        started = time.perf_counter()
        if tracer is not None:
            with tracer.span("sweep.grid", trace_id="grid"):
                grid = runner.run_grid(spec, progress=False)
        else:
            grid = runner.run_grid(spec, progress=False)
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.restore()

    # -- checks (outside the timed region, wrappers removed) ----------
    cache = ResultCache(cache_dir)
    cells = {}
    failures = []
    requests = 0
    results = []
    for tracker in definition["trackers"]:
        for workload in definition["workloads"]:
            cid = cell_id(tracker, workload)
            result = grid.get(tracker, {}).get(workload)
            if result is None:
                failures.append(f"{cid}: missing from the grid")
                continue
            results.append(result)
            payload = result.to_dict()
            cells[cid] = digest(payload)
            requests += result.requests
            stored = cache.load(cell_key(config, tracker, workload))
            if stored is None or RunResult.from_dict(stored) != result:
                failures.append(f"{cid}: cache entry does not round-trip")
            if result.requests <= 0 or result.activations <= 0:
                failures.append(f"{cid}: empty run")
            if tracker == "baseline" and (result.mitigations or result.meta_accesses):
                failures.append(f"{cid}: baseline mitigated or touched metadata")

    out = {
        "ready_s": ready_s,
        "wall_s": wall_s,
        "requests": requests,
        "cells": cells,
        "failures": failures,
    }
    if traced:
        from layers import cold_layers
        from repro.obs.manifest import read_manifest

        records, _ = read_manifest(manifest)
        busy_s = sum(r.wall_time_s for r in records)
        replay = None
        if capture.streams:
            replay = capture.replay(config)
            failures.extend(
                f"{cid}: tracker replay disagrees on mitigations"
                for cid in replay["mismatched"]
            )
        out["layers"] = cold_layers(
            tracer, capture, results, wall_s, busy_s, jobs, replay
        )
        out["self_times"] = tracer.self_times()
        out["trace"] = tracer.export()
    emit(out)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
