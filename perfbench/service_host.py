"""The service-warm set-up and server, in a process of its own.

Usage: ``python service_host.py '<json args>'`` with keys ``seed``,
``tiny``, ``work`` and ``spawn_t`` (as in ``grid_pass.py``).

Set-up fills a fresh result cache through ``ExperimentRunner.run_grid``
with every cell the clients may ask for, then binds a loopback
``SweepService`` on an ephemeral port and prints ``{"ready_s",
"port"}``. From then on it serves HTTP on its event loop and answers
one JSON line per command read from stdin:

- ``trace``: wrap the service's layers from now on;
- ``dump``: report the spans and counts collected so far;
- ``stop``: report this process's peak RSS, close the server and exit.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from pathlib import Path

from common import emit, service_definition, use_checkout_src


async def serve(args: dict) -> None:
    use_checkout_src()
    from repro.service.broker import SweepBroker
    from repro.service.http import serve_async
    from repro.sim.config import SystemConfig
    from repro.sim.grid import GridSpec
    from repro.sim.sweep import ExperimentRunner

    definition = service_definition(args["tiny"])
    work = Path(args["work"])
    cache_dir = work / "cache"
    config = SystemConfig(
        scale=1.0 / definition["scale_denominator"], seed=args["seed"]
    )
    grid = GridSpec(
        trackers=tuple(definition["trackers"]),
        workloads=tuple(definition["workloads"] or ()),
        config=config,
    )
    ExperimentRunner(config, cache_dir=cache_dir, jobs=2).run_grid(
        grid, progress=False
    )
    broker = SweepBroker(
        state_dir=work / "state", cache_dir=cache_dir, pool="thread", workers=2
    )
    server = await serve_async(broker, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    emit({"ready_s": time.monotonic() - args["spawn_t"], "port": port})

    tracer = None
    loop = asyncio.get_running_loop()
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command == "trace":
                from layers import install_service, job_thread_trace_id
                from tracing import Tracer

                tracer = Tracer(root_trace_id=job_thread_trace_id)
                install_service(tracer)
                emit({"ok": True})
            elif command == "dump":
                if tracer is None:
                    emit({"totals": {}, "counts": {}, "trace": None,
                          "self_times": {}})
                else:
                    emit({"totals": tracer.totals(), "counts": dict(tracer.counts),
                          "trace": tracer.export(),
                          "self_times": tracer.self_times()})
            else:  # "stop", or stdin closed
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                emit({"peak_rss_mb": peak / 1024.0})
                break
    finally:
        server.close()
        await server.wait_closed()
        if tracer is not None:
            tracer.restore()
        broker.shutdown(wait=True)


if __name__ == "__main__":
    asyncio.run(serve(json.loads(sys.argv[1])))
