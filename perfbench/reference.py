"""In-process ``repro.api.run`` of service cells (a child of ``run.py``).

Usage: ``python reference.py '<json args>'`` with keys ``cells`` (a list
of ``[tracker, workload]``, grouped by workload), ``scale_denominator``,
``seed`` and ``chunksize`` (cells per task: one workload's group, so a
worker synthesizes each trace once).

Runs every cell through ``repro.api.run`` on a two-process pool, with no
result cache, and prints one JSON line mapping each cell id to the
canonical form of its ``RunResult.to_dict()``.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor

from common import canonical, cell_id, emit, use_checkout_src


def reference_cell(args) -> str:
    tracker, workload, scale_denominator, seed = args
    import repro.api
    from repro.sim.config import SystemConfig

    config = SystemConfig(scale=1.0 / scale_denominator, seed=seed)
    return canonical(repro.api.run(tracker, workload, config=config).to_dict())


def main(args: dict) -> None:
    use_checkout_src()
    cells = [tuple(cell) for cell in args["cells"]]
    work = [(t, w, args["scale_denominator"], args["seed"]) for t, w in cells]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(reference_cell, work,
                                chunksize=args["chunksize"]))
    emit({cell_id(t, w): result for (t, w), result in zip(cells, results)})


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
