"""Which public calls a traced run wraps, and the per-layer metrics.

Each ``install_*`` function wraps one process's share of the program:
the cold-grid process (engine, tracker, results, cache, sweep), the
service host (HTTP dispatch, broker, cache reads) and the service
clients. The ``*_layers`` functions turn the collected spans and
counts into the ``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Any, Dict, Iterable, List, Optional

from common import cell_id, split_cell_id
from tracing import Tracer

#: Layers of a pooled grid that run inside the pool workers; their
#: numbers come from a traced serial replay of the same cells.
POOL_SIDE = (
    "workloads.trace_s",
    "memctrl.run_trace_s",
    "memctrl.host_ns_per_req",
    "feedback.followup_s",
    "dram.activations",
    "dram.row_hit_rate",
    "trackers.replay_ns_per_act",
    "trackers.meta_cache_hit_rate",
    "results.to_dict_s",
    "cache.store_s",
    "cache.lease_s",
)


def _count_cache_hits(tracer: Tracer):
    def on_load(frame, payload, *args, **kwargs) -> None:
        tracer.count("cache.loads")
        if payload is not None:
            tracer.count("cache.hits")

    return on_load


# ---------------------------------------------------------------------
# Cold grids
# ---------------------------------------------------------------------


class ColdCapture:
    """Per-cell data a traced cold grid keeps beside its spans.

    ``streams`` holds each cell's tracker call sequence (row ids, with
    -1 marking a window reset) for the isolated replay.
    """

    def __init__(self) -> None:
        self.streams: Dict[str, array] = {}
        self.activity: Dict[str, Dict[str, int]] = {}
        self.snapshots: Dict[str, Dict[str, float]] = {}
        self.mitigations: Dict[str, int] = {}
        self._trackers: Dict[str, Any] = {}

    def on_controller(self, frame, controller, *args, **kwargs) -> None:
        cid = frame[2]
        tracker = controller.tracker
        stream = array("q")
        record = stream.append
        on_activation = tracker.on_activation
        on_window_reset = tracker.on_window_reset

        def captured_activation(row_id):
            record(row_id)
            return on_activation(row_id)

        def captured_reset():
            record(-1)
            return on_window_reset()

        tracker.on_activation = captured_activation
        tracker.on_window_reset = captured_reset
        self.streams[cid] = stream
        self._trackers[cid] = tracker

    def on_activity(self, frame, stats, *args, **kwargs) -> None:
        cid = frame[2]
        self.activity[cid] = {
            "activations": stats.activations,
            "row_buffer_hits": stats.row_buffer_hits,
            "row_buffer_misses": stats.row_buffer_misses,
        }
        tracker = self._trackers.pop(cid, None)
        if tracker is not None:
            self.snapshots[cid] = tracker.obs_snapshot()
            self.mitigations[cid] = tracker.mitigation_count()

    def replay(self, config) -> Dict[str, Any]:
        """Time each cell's tracker calls on a freshly built tracker.

        Construction and the split into window segments stay outside
        the timed region. Returns the total time, the activations
        replayed and the cells whose replay disagreed with the run on
        the number of mitigations.
        """
        from repro.sim.simulator import make_tracker

        total_s = 0.0
        acts = 0
        mismatched: List[str] = []
        for cid, stream in self.streams.items():
            rows = stream.tolist()
            segments = _split_windows(rows)
            tracker = make_tracker(split_cell_id(cid)[0], config)
            on_activation = tracker.on_activation
            on_window_reset = tracker.on_window_reset
            started = time.perf_counter()
            for row_id in segments[0]:
                on_activation(row_id)
            for segment in segments[1:]:
                on_window_reset()
                for row_id in segment:
                    on_activation(row_id)
            total_s += time.perf_counter() - started
            acts += len(rows) - (len(segments) - 1)
            if tracker.mitigation_count() != self.mitigations.get(cid):
                mismatched.append(cid)
        return {"seconds": total_s, "activations": acts, "mismatched": mismatched}


def _split_windows(rows: List[int]) -> List[List[int]]:
    segments = []
    start = 0
    for index, row_id in enumerate(rows):
        if row_id < 0:
            segments.append(rows[start:index])
            start = index + 1
    segments.append(rows[start:])
    return segments


def _traced_pool_class(tracer: Tracer):
    from concurrent.futures import ProcessPoolExecutor

    class TracedProcessPool(ProcessPoolExecutor):
        """Times pool construction and submission (worker start-up)."""

        def __init__(self, *args, **kwargs):
            with tracer.span("sweep.pool_start"):
                super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            with tracer.span("sweep.pool_start"):
                return super().submit(*args, **kwargs)

    return TracedProcessPool


def install_cold(tracer: Tracer, capture: ColdCapture) -> None:
    """Wrap the layers a cold ``run_grid`` pass goes through."""
    import repro.sim.simulator as simulator
    import repro.sim.sweep as sweep
    from repro.memctrl.base import BaseMemoryController
    from repro.memctrl.controller import MemoryController
    from repro.memctrl.feedback import TrackerFeedback
    from repro.sim.cache import ResultCache
    from repro.sim.results import RunResult
    from repro.sim.spec import RunSpec

    tracer.wrap(
        sweep.ExperimentRunner, "run", "sweep.cell",
        trace_id_of=lambda runner, tracker, workload: cell_id(tracker, workload),
    )
    tracer.wrap(sweep, "simulate_workload", "sim.simulate")
    tracer.wrap(simulator, "trace_for_workload", "workloads.trace")
    tracer.wrap(RunSpec, "build_controller", "memctrl.build",
                on_return=capture.on_controller)
    tracer.wrap(MemoryController, "run_trace", "memctrl.run_trace")
    tracer.wrap_hot(TrackerFeedback, "drive_followups", "feedback.followup")
    tracer.wrap(BaseMemoryController, "activity", "dram.activity",
                on_return=capture.on_activity)
    tracer.wrap(RunResult, "to_dict", "results.to_dict")
    tracer.wrap(RunResult, "from_dict", "results.from_dict")
    tracer.wrap(ResultCache, "store", "cache.store")
    tracer.wrap(ResultCache, "load", "cache.load",
                on_return=_count_cache_hits(tracer))
    tracer.wrap(ResultCache, "lease", "cache.lease")
    tracer.replace(sweep, "ProcessPoolExecutor", _traced_pool_class(tracer))


def _seconds(totals, name: str) -> float:
    return totals.get(name, (0.0, 0))[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def meta_cache_counts(snapshots: Iterable[Dict[str, float]]):
    """(hits, lookups) of the trackers' metadata caches: Hydra's RCC
    (a miss goes to the RCT in DRAM) and CRA's counter cache."""
    hits = lookups = 0.0
    for snap in snapshots:
        if "hydra_rcc_hits" in snap:
            hits += snap["hydra_rcc_hits"]
            lookups += snap["hydra_rcc_hits"] + snap["hydra_rct_accesses"]
        if "cra_cache_hits" in snap:
            hits += snap["cra_cache_hits"]
            lookups += snap["cra_cache_hits"] + snap["cra_cache_misses"]
    return hits, lookups


def cold_layers(
    tracer: Tracer,
    capture: ColdCapture,
    results: Iterable[Any],
    wall_s: float,
    busy_s: float,
    workers: int,
    replay: Optional[Dict[str, Any]],
) -> Dict[str, float]:
    """Per-layer metrics of one traced cold grid pass (grid totals)."""
    totals = tracer.totals()
    results = list(results)
    requests = sum(r.requests for r in results)
    meta = sum(r.meta_accesses for r in results)
    activity = capture.activity.values()
    hits = sum(a["row_buffer_hits"] for a in activity)
    misses = sum(a["row_buffer_misses"] for a in activity)
    cache_hits, cache_lookups = meta_cache_counts(capture.snapshots.values())
    run_trace_s = _seconds(totals, "memctrl.run_trace")
    return {
        "workloads.trace_s": _seconds(totals, "workloads.trace"),
        "memctrl.run_trace_s": run_trace_s,
        "memctrl.host_ns_per_req": _ratio(run_trace_s * 1e9, requests)
        if run_trace_s else 0.0,
        "feedback.followup_s": _seconds(totals, "feedback.followup"),
        "feedback.meta_accesses": meta,
        "feedback.meta_per_req": _ratio(meta, requests),
        "dram.activations": sum(a["activations"] for a in activity),
        "dram.row_hit_rate": _ratio(hits, hits + misses),
        "trackers.replay_ns_per_act": _ratio(
            replay["seconds"] * 1e9, replay["activations"]
        ) if replay else 0.0,
        "trackers.mitigations": sum(r.mitigations for r in results),
        "trackers.meta_cache_hit_rate": _ratio(cache_hits, cache_lookups),
        "results.to_dict_s": _seconds(totals, "results.to_dict"),
        "results.from_dict_s": _seconds(totals, "results.from_dict"),
        "cache.store_s": _seconds(totals, "cache.store"),
        "cache.lease_s": _seconds(totals, "cache.lease"),
        "cache.load_s": _seconds(totals, "cache.load"),
        "cache.hit_rate": _ratio(tracer.counts.get("cache.hits", 0.0),
                                 tracer.counts.get("cache.loads", 0.0)),
        "sweep.dispatch_s": max(wall_s - busy_s / max(workers, 1), 0.0),
        "sweep.pool_start_s": _seconds(totals, "sweep.pool_start"),
    }


# ---------------------------------------------------------------------
# Service
# ---------------------------------------------------------------------


def _job_of_path(service, method, path, *args, **kwargs) -> Optional[str]:
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    if len(parts) >= 2 and parts[0] == "jobs":
        return parts[1]
    return None


def _tag_submitted_job(frame, response, *args, **kwargs) -> None:
    status, payload = response
    if status == 201 and "job_id" in payload:
        frame[2] = payload["job_id"]


def job_thread_trace_id() -> str:
    """A broker job thread is named ``sweep-job-<job id>``."""
    name = threading.current_thread().name
    return name[len("sweep-job-"):] if name.startswith("sweep-job-") else ""


def install_service(tracer: Tracer) -> None:
    """Wrap the service host's HTTP dispatch, broker and cache reads."""
    from repro.service.broker import SweepBroker
    from repro.service.http import SweepService
    from repro.sim.cache import ResultCache
    from repro.sim.results import GridResult, RunResult

    tracer.wrap(SweepService, "dispatch", "http.dispatch",
                trace_id_of=_job_of_path, on_return=_tag_submitted_job)
    tracer.wrap(SweepBroker, "submit", "broker.submit")
    tracer.wrap(SweepBroker, "status", "broker.status")
    tracer.wrap(SweepBroker, "result", "broker.result")
    tracer.wrap(ResultCache, "load", "cache.load",
                on_return=_count_cache_hits(tracer))
    tracer.wrap(RunResult, "from_dict", "results.from_dict")
    tracer.wrap(GridResult, "to_payload", "results.to_payload")


class _TracedTime:
    """Stands in for the ``time`` module inside the client module so
    that its poll sleeps become spans."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(time, name)

    def sleep(self, seconds: float) -> None:
        with self._tracer.span("client.poll_wait"):
            time.sleep(seconds)


def install_client(tracer: Tracer, job_seconds: Dict[str, float]) -> None:
    """Wrap the client side of a remote job.

    ``job_seconds`` receives, per job id, the broker's own account of
    the job's duration (``updated_at - created_at`` of its final
    status).
    """
    import repro.api as api
    import repro.service.client as client
    from repro.sim.results import RunResult

    def on_status(frame, status, *args, **kwargs) -> None:
        frame[2] = status.job_id
        if status.done:
            job_seconds[status.job_id] = status.updated_at - status.created_at

    tracer.wrap(api, "sweep", "api.sweep")
    tracer.wrap(client.ServiceClient, "submit", "client.submit")
    tracer.wrap(client.ServiceClient, "status", "client.status",
                on_return=on_status)
    tracer.wrap(client.ServiceClient, "result", "client.result")
    tracer.wrap(RunResult, "from_dict", "results.from_dict")
    tracer.replace(client, "time", _TracedTime(tracer))


def service_layers(
    client_tracer: Tracer,
    server: Dict[str, Any],
    job_seconds: Dict[str, float],
    jobs: int,
) -> Dict[str, float]:
    """Per-layer metrics of the traced service phase, as per-job means."""
    client_totals = client_tracer.totals()
    server_totals = server["totals"]
    counts = server["counts"]

    def per_job(value: float) -> float:
        return _ratio(value, jobs)

    return {
        "results.from_dict_s": per_job(
            _seconds(client_totals, "results.from_dict")
            + _seconds(server_totals, "results.from_dict")
        ),
        "cache.load_s": per_job(_seconds(server_totals, "cache.load")),
        "cache.hit_rate": _ratio(counts.get("cache.hits", 0.0),
                                 counts.get("cache.loads", 0.0)),
        "broker.submit_s": per_job(_seconds(server_totals, "broker.submit")),
        "broker.job_s": _ratio(sum(job_seconds.values()), len(job_seconds)),
        "http.dispatch_s": per_job(_seconds(server_totals, "http.dispatch")),
        "http.requests_per_job": per_job(
            server_totals.get("http.dispatch", (0.0, 0))[1]
        ),
        "client.poll_wait_s": per_job(_seconds(client_totals, "client.poll_wait")),
        "client.polls_per_job": per_job(
            client_totals.get("client.status", (0.0, 0))[1]
        ),
    }
