"""Experiment sweeps: the one dispatcher of tracker x workload grids.

Every figure in the paper's evaluation is a sweep of (tracker
configuration) x (36 workloads), aggregated per suite with geometric
means. This module owns the single path a grid cell takes from spec
to result, whoever asked for it:

- :func:`run_cell` fills one cell through the shared
  :class:`~repro.sim.cache.ResultCache`, lease-guarded: whoever
  atomically claims ``<key>.lease`` simulates and stores, everyone
  else polls until the entry lands (DESIGN.md §15). It is the work
  unit every pool runs.
- :class:`CellDispatcher` walks cells in grid order over one executor
  (``process``, ``thread`` or ``inline``): cache first, a dispatch
  window of 2x workers, in-flight dedup by cache key, per-cell retry
  with exponential backoff.
- :func:`cell_record` builds each cell's
  :class:`~repro.obs.manifest.ManifestRecord`.
- :class:`ExperimentRunner` drives a dispatcher synchronously per
  ``run_grid``; the sweep service's
  :class:`~repro.service.broker.SweepBroker` keeps one for its
  lifetime and adds only job bookkeeping on top.

Grids are engine-agnostic: ``SystemConfig.engine`` selects the
memory-controller engine (fast in-order vs queued FR-FCFS) for every
cell, and a per-column override rides in the spec string
(``hydra@engine=queued``) — both are part of the cache key, so fast
and queued results share one cache directory without ever being
served for each other.

Grid cells are independent deterministic simulations, so
``run_grid``/``compare`` fan them out across a process pool: pass
``jobs=N`` (or ``jobs=0`` for one worker per CPU), or set the
``REPRO_JOBS`` environment variable to change the default for every
sweep. Parallel results are identical to serial ones — each worker
rebuilds the same seeded trace and tracker from the picklable
(config, tracker name, workload name) spec — and the disk cache uses
atomic writes and leases (see :mod:`repro.sim.cache`), so concurrent
grids, benchmark processes and service brokers can share one cache
directory and still simulate each cell once.

Set ``REPRO_CACHE_DIR`` to relocate the cache; delete it to force
re-simulation.

Provenance: when a manifest destination is configured (an explicit
``manifest_path``, ``$REPRO_MANIFEST``, or — with ``REPRO_OBS=1`` — a
``manifest.jsonl`` next to the cache), every ``run_grid`` appends one
JSON-lines :class:`~repro.obs.manifest.ManifestRecord` per cell, in
grid order: canonical spec, cache key, engine, cache hit or not, wall
time, throughput. ``hydra-sim report --manifest`` summarizes the log.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import socket
import sys
import threading
import time
import uuid
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.manifest import (
    ManifestRecord,
    ManifestWriter,
    make_record,
    resolve_manifest_path,
)
from repro.sim.cache import DEFAULT_LEASE_TTL_S, ResultCache
from repro.sim.config import SystemConfig, default_cache_dir, resolve_jobs
from repro.sim.grid import GridCell, GridSpec
from repro.sim.results import ComparisonResult, GridResult, RunResult
from repro.sim.simulator import simulate_workload, trace_for_workload
from repro.trackers.registry import canonical_spec
from repro.workloads.streaming import TraceSource

#: Bump to invalidate cached results when the model changes materially.
MODEL_VERSION = "v1"

#: How often a worker that lost the lease re-polls the cache for the
#: winner's entry.
DEFAULT_POLL_S = 0.05
#: Default cap on re-attempts of one cell after worker failures.
DEFAULT_MAX_RETRIES = 2
#: Base of the exponential backoff between attempts (seconds).
DEFAULT_BACKOFF_S = 0.5

#: ``(config, tracker, workload, cache, lease_ttl_s)`` ->
#: ``(result, from_cache, wall_s)``; :func:`run_cell` is the real one.
CellRunner = Callable[..., Tuple[RunResult, bool, float]]


def cell_key(
    config: SystemConfig, tracker_name: str, workload_name: str
) -> str:
    """Stable cache key of one grid cell (shared with pool workers).

    Tracker specs are canonicalized first, so spelling variants of one
    configuration (``hydra@trh=250, rcc_ways=8`` vs
    ``hydra@rcc_ways=8,trh=250``) share a cache entry — and invalid
    specs fail fast here, before any work is fanned out. The engine
    participates twice: via ``config.cache_key()`` and via any
    ``engine=`` spec override, so fast and queued results never share
    a key.
    """
    spec = canonical_spec(tracker_name)
    raw = f"{MODEL_VERSION}|{config.cache_key()}|{spec}|{workload_name}"
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


# ---------------------------------------------------------------------
# The work unit: one cache fill, lease-guarded
# ---------------------------------------------------------------------


def worker_identity() -> str:
    """A lease-owner string unique to this worker invocation."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def run_cell(
    config: SystemConfig,
    tracker: str,
    workload: str,
    cache: ResultCache,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = DEFAULT_POLL_S,
) -> Tuple[RunResult, bool, float]:
    """Produce one cell's result through the shared cache.

    Returns ``(result, from_cache, wall_s)``. Concurrent workers (of
    one grid, another grid, another broker, or another machine sharing
    the cache directory) fill each key once: the holder of the key's
    lease simulates and stores, the rest poll the cache. A lease whose
    holder crashed expires after ``lease_ttl_s`` and is reclaimed, so
    a dead worker delays a cell, never wedges it.

    In-process pools pass their own ``cache`` instance, so its
    ``stores`` / ``leases_reclaimed`` counters observe the work; a
    process pool pickles a copy to each worker.
    """
    started = time.perf_counter()
    key = cell_key(config, tracker, workload)
    owner = worker_identity()
    while True:
        result = cache.load_result(key)
        if result is not None:
            return result, True, time.perf_counter() - started
        if cache.lease(key, owner, ttl_s=lease_ttl_s):
            try:
                result = simulate_workload(config, tracker, workload)
                cache.store(key, result.to_dict())
                return result, False, time.perf_counter() - started
            finally:
                cache.release(key, owner)
        # Someone else holds the lease: wait for their store to land
        # (or for the lease to expire so the loop reclaims it).
        time.sleep(poll_s)


# ---------------------------------------------------------------------
# The dispatch core
# ---------------------------------------------------------------------


class _InlineExecutor:
    """Executor that runs the submission immediately in the caller.

    Keeps the dispatch/collect code shape identical across pools while
    making serial grids and single-threaded tests fully deterministic.
    """

    def submit(self, fn, *args, **kwargs) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # recorded, surfaced on .result()
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:  # noqa: ARG002
        pass


def _make_executor(pool: str, workers: int):
    if pool == "inline":
        return _InlineExecutor()
    if pool == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(max_workers=workers)


class _CellTask:
    """One cell fill, shared by every grid that wants its cache key."""

    def __init__(self, cell: GridCell) -> None:
        self.cell = cell
        self.attempts = 0
        self.future: Optional["Future[Any]"] = None
        self.result: Optional[RunResult] = None
        self.from_cache = False
        self.wall_s = 0.0
        self.error: Optional[BaseException] = None
        self.done = threading.Event()
        #: Serializes the retry loop: the first waiter drives
        #: resubmission, later waiters just block on ``done``.
        self.drive = threading.Lock()

    def finish(
        self, result: RunResult, from_cache: bool, wall_s: float
    ) -> "_CellTask":
        self.result = result
        self.from_cache = from_cache
        self.wall_s = wall_s
        self.error = None
        self.done.set()
        return self


def _cached_task(
    cache: ResultCache,
    cell: GridCell,
    memo: Optional[Mapping[str, RunResult]] = None,
) -> Optional[_CellTask]:
    """A finished task if ``memo`` or ``cache`` holds the cell, else None."""
    started = time.perf_counter()
    result = memo.get(cell.key) if memo else None
    if result is None:
        result = cache.load_result(cell.key)
    if result is None:
        return None
    return _CellTask(cell).finish(result, True, time.perf_counter() - started)


def cell_record(
    cell: GridCell, task: _CellTask, job_id: str = ""
) -> ManifestRecord:
    """The manifest line of one finished cell (grids and service jobs).

    ``cell`` is the cell as submitted: a task is shared by every
    spelling of one cache key, so ``task.cell`` may be another one.
    """
    result = task.result
    return make_record(
        cache_key=cell.key,
        spec=canonical_spec(cell.tracker),
        workload=cell.workload,
        engine=result.engine,
        from_cache=task.from_cache,
        wall_time_s=task.wall_s,
        requests=result.requests,
        end_time_ns=result.end_time_ns,
        job_id=job_id,
    )


class CellDispatcher:
    """Fills grid cells through the result cache on one executor.

    :meth:`run` walks cells in grid order: each is checked against the
    cache first (a hit is finished at once); a miss becomes a task in
    a dispatcher-wide in-flight map keyed by cache key, so every grid
    wanting the same cell shares one task, and leases extend that
    dedup across processes. Dispatch runs ahead of collection by a
    window of 2x workers so the pool stays busy, while tasks are
    *yielded* in grid order, so manifests and progress counts are
    reproducible however the pool schedules.

    A failed attempt (a worker crash, a broken process pool) is
    retried up to ``max_retries`` times with exponential backoff
    (``backoff_s * 2^(attempt-1)``, injectable ``sleep``); after that
    the task is yielded with its ``error`` set and the caller decides.
    """

    def __init__(
        self,
        cache: ResultCache,
        pool: str = "process",
        workers: int = 1,
        *,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        sleep: Callable[[float], None] = time.sleep,
        cell_runner: Optional[CellRunner] = None,
    ) -> None:
        if pool not in ("process", "thread", "inline"):
            raise ValueError(f"unknown pool kind {pool!r}")
        self.cache = cache
        self.pool = pool
        self.workers = workers
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.lease_ttl_s = lease_ttl_s
        self._sleep = sleep
        self._cell_runner = cell_runner if cell_runner is not None else run_cell
        self._in_flight: Dict[str, _CellTask] = {}
        self._lock = threading.Lock()
        # The executor gets its own lock: acquire() submits while
        # holding _lock, and _get_executor must not re-take it.
        self._exec_lock = threading.Lock()
        self._executor = None

    def run(
        self, cells: Iterable[GridCell]
    ) -> Iterator[Tuple[GridCell, _CellTask]]:
        """Yield ``(cell, finished task)`` per cell, in the order of ``cells``.

        The cell is the one submitted, not ``task.cell``: spellings of
        one canonical tracker share a task. Nothing beyond the window
        is dispatched until the caller asks for the next pair, so a
        caller that stops iterating (a cancelled job, a spent step
        budget) stops dispatching.
        """
        pending = iter(cells)
        window = max(2 * self.workers, 2)
        dispatched: Deque[Tuple[GridCell, _CellTask]] = deque()
        while True:
            for cell in itertools.islice(pending, window - len(dispatched)):
                task = _cached_task(self.cache, cell) or self.acquire(cell)
                dispatched.append((cell, task))
            if not dispatched:
                return
            cell, task = dispatched.popleft()
            self.wait(task)
            yield cell, task

    def acquire(self, cell: GridCell) -> _CellTask:
        """The shared task filling this cell's cache key.

        One canonical key maps to at most one live task, however many
        grids want it — the in-process half of in-flight dedup
        (leases extend it across processes).
        """
        with self._lock:
            task = self._in_flight.get(cell.key)
            if task is None:
                task = _CellTask(cell)
                task.future = self._submit(cell)
                self._in_flight[cell.key] = task
            return task

    def wait(self, task: _CellTask) -> None:
        """Block until the task is done, driving retries if first."""
        if task.done.is_set():
            return
        with task.drive:
            while not task.done.is_set():
                task.attempts += 1
                try:
                    result, from_cache, wall_s = task.future.result()
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool):
                        # Drop the broken pool; the resubmit below
                        # builds a fresh one.
                        self.shutdown(wait=False)
                    if task.attempts > self.max_retries:
                        task.error = exc
                        task.done.set()
                        break
                    self._sleep(self.backoff_s * (2 ** (task.attempts - 1)))
                    task.future = self._submit(task.cell)
                else:
                    task.finish(result, from_cache, wall_s)
        with self._lock:
            self._in_flight.pop(task.cell.key, None)

    def shutdown(self, wait: bool = True) -> None:
        with self._exec_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    # -- executor plumbing ---------------------------------------------

    def _submit(self, cell: GridCell) -> "Future[Any]":
        return self._get_executor().submit(
            self._cell_runner,
            cell.config,
            cell.tracker,
            cell.workload,
            self.cache,
            self.lease_ttl_s,
        )

    def _get_executor(self):
        with self._exec_lock:
            if self._executor is None:
                self._executor = _make_executor(self.pool, self.workers)
            return self._executor


def pool_map(fn: Callable[..., Any], calls: Sequence[tuple], jobs: int) -> list:
    """``[fn(*args) for args in calls]``, over processes when ``jobs`` > 1.

    For independent cells that never touch the result cache (the
    arena's security oracle, the attack fuzzer); results come back in
    the order of ``calls`` either way.
    """
    workers = min(jobs, len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    executor = _make_executor("process", workers)
    try:
        futures = [executor.submit(fn, *args) for args in calls]
        return [future.result() for future in futures]
    finally:
        executor.shutdown()


# ---------------------------------------------------------------------
# In-process grids
# ---------------------------------------------------------------------


class SweepProgress:
    """Per-grid progress/throughput report (cells, hits, sims/sec).

    Writes carriage-return-updated status lines to ``stream`` while a
    sweep runs and one final summary line when it finishes. Enabled
    explicitly, or automatically for multi-cell grids on a terminal.
    """

    def __init__(
        self,
        total: int,
        enabled: Optional[bool] = None,
        stream=None,
        label: str = "sweep",
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            enabled = total > 1 and getattr(
                self.stream, "isatty", lambda: False
            )()
        self.enabled = enabled
        self.total = total
        self.label = label
        self.done = 0
        self.cache_hits = 0
        self._start = time.monotonic()

    @property
    def simulations(self) -> int:
        return self.done - self.cache_hits

    def sims_per_second(self) -> float:
        elapsed = max(time.monotonic() - self._start, 1e-9)
        return self.simulations / elapsed

    def record(self, from_cache: bool) -> None:
        self.done += 1
        if from_cache:
            self.cache_hits += 1
        if self.enabled:
            self.stream.write("\r" + self._status() + " ")
            self.stream.flush()

    def finish(self) -> None:
        if self.enabled and self.done:
            self.stream.write("\r" + self._status() + "\n")
            self.stream.flush()

    def _status(self) -> str:
        return (
            f"[{self.label}] {self.done}/{self.total} cells"
            f" | {self.cache_hits} cache hits"
            f" | {self.sims_per_second():.2f} sims/s"
        )


class ExperimentRunner:
    """Runs and caches (config, tracker, workload) simulations."""

    def __init__(
        self,
        config: SystemConfig,
        cache_dir: Optional[Path] = None,
        jobs: Optional[int] = None,
        manifest_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        #: Default parallelism for grids run through this runner
        #: (``None`` defers to ``REPRO_JOBS``, then serial).
        self.jobs = jobs
        #: Where ``run_grid`` appends per-cell provenance records, or
        #: ``None`` for no manifest (explicit arg > ``$REPRO_MANIFEST``
        #: > cache-adjacent default when observability is on).
        self.manifest_path = resolve_manifest_path(
            manifest_path, self.cache_dir
        )
        self.cache = ResultCache(self.cache_dir)
        self._results: Dict[str, RunResult] = {}

    # ------------------------------------------------------------------

    def trace_for(self, workload_name: str) -> TraceSource:
        return trace_for_workload(self.config, workload_name)

    def run(self, tracker_name: str, workload_name: str) -> RunResult:
        """One simulation, via the in-memory and on-disk caches."""
        key = cell_key(self.config, tracker_name, workload_name)
        result = self._results.get(key)
        if result is None:
            result = run_cell(
                self.config, tracker_name, workload_name, self.cache
            )[0]
            self._results[key] = result
        return result

    def _run_inline(
        self, config: SystemConfig, tracker: str, workload: str, *_args
    ) -> Tuple[RunResult, bool, float]:
        """Cell runner of the inline pool: :meth:`run`, timed.

        Reports a cache hit, as :func:`run_cell` does, when this runner
        stored nothing: another process filled the entry while
        :meth:`run` waited on its lease.
        """
        started = time.perf_counter()
        stores = self.cache.stores
        result = self.run(tracker, workload)
        from_cache = self.cache.stores == stores
        return result, from_cache, time.perf_counter() - started

    def _own_grid(self, grid: GridSpec) -> GridSpec:
        """``grid`` pinned to this runner's config.

        A GridSpec carrying its *own* config must agree with the
        runner's — cache keys are computed from the runner's config,
        and silently honouring a different one would mislabel every
        cell.
        """
        if not isinstance(grid, GridSpec):
            raise TypeError(
                "run_grid takes a GridSpec, e.g. GridSpec(trackers=("
                "'baseline', 'hydra'), workloads=('leela',)); got"
                f" {type(grid).__name__}"
            )
        if grid.config is not None and grid.config != self.config:
            raise ValueError(
                "GridSpec.config disagrees with this runner's"
                " config; build the runner from the grid's config"
                " (repro.api.sweep does) or drop the grid's"
            )
        return grid.with_config(self.config)

    def run_grid(
        self,
        grid: GridSpec,
        *,
        jobs: Optional[int] = None,
        progress: Optional[bool] = None,
    ) -> GridResult:
        """tracker -> workload -> RunResult for the whole grid.

        ``grid`` is a :class:`~repro.sim.grid.GridSpec`; a config it
        carries must match the runner's.

        Returns a :class:`~repro.sim.results.GridResult` — dict-style
        access is unchanged, with ``.comparisons()``/``.slowdowns()``/
        ``.geomean()``/``.to_table()`` on top.

        Cells already in memory or in the cache are served from there.
        When ``jobs`` > 1 and more than one cell misses, the misses
        fan out over a process pool (``jobs=0`` = one worker per CPU;
        ``None`` defers to the runner's default, then ``REPRO_JOBS``,
        then serial); otherwise they run inline. Either way they go
        through :class:`CellDispatcher` — lease-guarded, retried on
        failure — and results are identical to a serial run.
        ``progress`` forces the cells/hits/throughput report on or off
        (default: on when stderr is a terminal). When the runner has
        a ``manifest_path``, one provenance record per cell is
        appended, in grid order, after the grid completes.
        """
        spec = self._own_grid(grid)
        n_jobs = resolve_jobs(jobs if jobs is not None else self.jobs)
        cells = list(spec.cells())
        hits: Dict[str, _CellTask] = {}
        for cell in cells:
            task = _cached_task(self.cache, cell, self._results)
            if task is not None:
                hits[cell.key] = task
        misses = [cell for cell in cells if cell.key not in hits]
        workers = min(n_jobs, len({cell.key for cell in misses}))
        if workers > 1:
            dispatcher = CellDispatcher(self.cache, "process", workers)
        else:
            dispatcher = CellDispatcher(
                self.cache, "inline", cell_runner=self._run_inline
            )

        columns: Dict[str, Dict[str, RunResult]] = {
            tracker: {} for tracker in spec.trackers
        }
        report = SweepProgress(total=len(cells), enabled=progress)
        records: List[ManifestRecord] = []
        try:
            # Hits are served from the pre-pass; the dispatcher fills
            # the misses, yielding them in the same (grid) order.
            filled = dispatcher.run(misses)
            for cell in cells:
                task = hits.get(cell.key) or next(filled)[1]
                if task.error is not None:
                    raise task.error
                self._results[cell.key] = task.result
                columns[cell.tracker][cell.workload] = task.result
                report.record(from_cache=task.from_cache)
                records.append(cell_record(cell, task))
        finally:
            dispatcher.shutdown()
        report.finish()
        if self.manifest_path is not None and records:
            ManifestWriter(self.manifest_path).append(records)
        return GridResult(columns)

    def compare(
        self,
        tracker: Union[str, GridSpec],
        workloads: Optional[Sequence[str]] = None,
        baseline_name: str = "baseline",
        jobs: Optional[int] = None,
        progress: Optional[bool] = None,
    ) -> ComparisonResult:
        """Tracked runs vs the no-tracking baseline, per workload.

        Returns a :class:`~repro.sim.results.ComparisonResult` — a
        plain list of :class:`Comparison` plus ``.geomean()``/
        ``.suite_geomeans()``/``.slowdowns()``/``.to_table()``.

        The tracked column may be named by a spec string or carried in
        a single-tracker :class:`~repro.sim.grid.GridSpec` (whose
        workload axis is then used). Both columns of the comparison go through
        :meth:`run_grid`, so ``jobs``/``REPRO_JOBS`` parallelism
        applies here too.
        """
        if isinstance(tracker, GridSpec):
            if len(tracker.trackers) != 1:
                raise ValueError(
                    "compare() takes a single-tracker GridSpec; run"
                    " multi-tracker grids through run_grid()"
                )
            if workloads is not None:
                raise ValueError(
                    "pass a GridSpec alone, not together with workloads"
                )
            tracker, workloads = tracker.trackers[0], tracker.workloads
        grid = self.run_grid(
            GridSpec(
                trackers=(baseline_name, tracker),
                workloads=tuple(workloads or ()),
            ),
            jobs=jobs,
            progress=progress,
        )
        return grid.comparisons(tracker, baseline=baseline_name)
