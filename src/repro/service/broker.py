"""The sweep job broker: persistent, resumable jobs over the dispatcher.

``SweepBroker`` turns submitted :class:`~repro.sim.grid.GridSpec`s
into filled result-cache entries. Cell execution — cache-first
lookup, the grid-order dispatch window, in-flight dedup by cache key,
leases, retry with backoff — is :class:`~repro.sim.sweep.CellDispatcher`,
the same core ``ExperimentRunner.run_grid`` drives; the broker holds
one for its lifetime, shared by every job, and owns only the job
lifecycle (DESIGN.md §15):

- **The cache is the system of record.** A job's durable state is its
  spec + status + manifest (see :mod:`repro.service.jobs`); cell
  payloads live only in the content-addressed
  :class:`~repro.sim.cache.ResultCache`. Kill the broker at any point,
  start a new one on the same directories, call :meth:`resume`, and
  every job completes having re-simulated only the cells that never
  made it to the cache.
- **Jobs.** Each job runs on its own ``sweep-job-<id>`` thread (or is
  stepped synchronously by :meth:`step`), records one manifest line
  per cell in grid order, and reaches COMPLETED, FAILED (a cell
  exhausted its retries) or CANCELLED.
- **Preemption.** :meth:`cancel` stops a job between cells; cells
  already dispatched run to completion (their cache entries are kept
  — cancelling a job never poisons another job's cells).

Execution pools: ``"process"`` (default — one OS process per worker,
the same isolation the parallel sweep uses), ``"thread"`` (shared
memory; the in-process default for tests and ``repro.api.sweep``),
and ``"inline"`` (no concurrency; deterministic single-step tests).
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.manifest import ManifestWriter, read_manifest
from repro.sim.cache import DEFAULT_LEASE_TTL_S, ResultCache
from repro.sim.config import default_cache_dir, resolve_jobs
from repro.sim.grid import GridSpec
from repro.sim.results import GridResult, RunResult
from repro.sim.sweep import (
    DEFAULT_BACKOFF_S,
    DEFAULT_MAX_RETRIES,
    CellDispatcher,
    CellRunner,
    cell_record,
)
from repro.service.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    JobHandle,
    JobStatus,
    JobStore,
)


class BrokerError(RuntimeError):
    """A request the broker cannot honour (unknown job, bad spec)."""


class _Job:
    """In-memory face of one submitted grid."""

    def __init__(self, job_id: str, spec: GridSpec, status: JobStatus) -> None:
        self.job_id = job_id
        self.spec = spec
        self.status = status
        self.cancel_event = threading.Event()
        self.thread: Optional[threading.Thread] = None
        #: Cache keys already recorded for this job (skip on re-entry).
        self.done_keys: set = set()


class SweepBroker:
    """Shards spec grids across a worker pool, cache-first."""

    def __init__(
        self,
        state_dir: Optional[Path] = None,
        cache_dir: Optional[Path] = None,
        pool: str = "process",
        workers: Optional[int] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        cell_runner: Optional[CellRunner] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.store = JobStore(state_dir if state_dir else self.cache_dir)
        self.cache = ResultCache(self.cache_dir)
        self.dispatcher = CellDispatcher(
            self.cache,
            pool,
            resolve_jobs(workers),
            max_retries=max_retries,
            backoff_s=backoff_s,
            lease_ttl_s=lease_ttl_s,
            sleep=sleep,
            cell_runner=cell_runner,
        )
        self._clock = clock
        self._jobs: Dict[str, _Job] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Submission / lifecycle
    # ------------------------------------------------------------------

    def submit(self, grid: GridSpec, start: bool = True) -> str:
        """Persist a grid as a new job; returns its id.

        ``start=False`` leaves the job PENDING for :meth:`step` (tests
        and external schedulers); the default spawns the job thread.
        """
        config = grid.resolved_config()  # raises if the spec has none
        grid = grid.with_config(config)
        job_id = self._new_job_id(grid)
        status = JobStatus(
            job_id=job_id,
            state=PENDING,
            grid_key=grid.grid_key(),
            total_cells=grid.n_cells(),
            created_at=self._clock(),
            updated_at=self._clock(),
        )
        job = _Job(job_id, grid, status)
        self.store.create(job_id, grid, status)
        with self._lock:
            self._jobs[job_id] = job
        if start:
            self._start(job)
        return job_id

    def resume(self, start: bool = True) -> List[str]:
        """Adopt every persisted non-terminal job; returns their ids.

        The restart path: a broker that died mid-grid left jobs in
        PENDING/RUNNING on disk. Each is reloaded from its spec and
        re-walked; cells whose payloads already sit in the cache are
        served from it, so nothing completed is ever re-simulated.
        """
        resumed = []
        for job_id in self.store.list_jobs():
            with self._lock:
                if job_id in self._jobs:
                    continue
            status = self.store.load_status(job_id)
            if status is None or status.state not in ACTIVE_STATES:
                continue
            spec = self.store.load_spec(job_id)
            job = _Job(job_id, spec, status)
            self._reload_done(job)
            with self._lock:
                self._jobs[job_id] = job
            resumed.append(job_id)
            if start:
                self._start(job)
        return resumed

    def _reload_done(self, job: _Job) -> None:
        """Rebuild a resumed job's recorded-cell set from its manifest.

        The manifest — appended before the status snapshot — is the
        truth of which cells were already recorded; without this, a
        resumed job would re-append (and re-count) every cell.
        """
        path = self.store.manifest_path(job.job_id)
        if not path.is_file():
            return
        records, _ = read_manifest(path)
        job.done_keys = {
            r.cache_key for r in records if r.job_id == job.job_id
        }
        job.status.completed_cells = len(job.done_keys)

    def cancel(self, job_id: str) -> JobStatus:
        """Preempt a job: no further cells are dispatched for it."""
        job = self._get(job_id)
        if job.status.state in ACTIVE_STATES:
            job.cancel_event.set()
            if job.thread is None or not job.thread.is_alive():
                # Nothing is driving the job; finalize immediately.
                self._finalize(job, CANCELLED)
        return job.status

    def shutdown(self, wait: bool = True) -> None:
        """Stop dispatching and (optionally) wait for job threads."""
        with self._lock:
            threads = [
                job.thread
                for job in self._jobs.values()
                if job.thread is not None
            ]
        if wait:
            for thread in threads:
                thread.join()
        self.dispatcher.shutdown(wait=wait)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self, job_id: str) -> JobStatus:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job.status
        status = self.store.load_status(job_id)
        if status is None:
            raise BrokerError(f"unknown job {job_id!r}")
        return status

    def jobs(self) -> List[JobStatus]:
        """Every known job's status, persisted ones included."""
        statuses: Dict[str, JobStatus] = {}
        for job_id in self.store.list_jobs():
            loaded = self.store.load_status(job_id)
            if loaded is not None:
                statuses[job_id] = loaded
        with self._lock:
            for job_id, job in self._jobs.items():
                statuses[job_id] = job.status
        return list(statuses.values())

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """The per-cell manifest records a job has produced so far."""
        path = self.store.manifest_path(job_id)
        if not path.is_file():
            self._get(job_id)  # raise on unknown job
            return []
        records, _ = read_manifest(path)
        return [r.to_dict() for r in records if r.job_id == job_id]

    def result(self, job_id: str) -> GridResult:
        """Assemble the completed job's GridResult from the cache.

        Falls back to the persisted spec/status so results of jobs
        completed before a broker restart stay servable.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            status, spec = job.status, job.spec
        else:
            status = self.store.load_status(job_id)
            if status is None:
                raise BrokerError(f"unknown job {job_id!r}")
            spec = self.store.load_spec(job_id)
        if status.state != COMPLETED:
            raise BrokerError(
                f"job {job_id} is {status.state}, not completed"
            )
        grid: Dict[str, Dict[str, RunResult]] = {}
        for cell in spec.cells():
            result = self.cache.load_result(cell.key)
            if result is None:
                raise BrokerError(
                    f"cache entry for cell ({cell.tracker},"
                    f" {cell.workload}) vanished; re-run the job"
                )
            grid.setdefault(cell.tracker, {})[cell.workload] = result
        return GridResult(grid)

    def handle(self, job_id: str) -> "LocalJobHandle":
        self.status(job_id)  # raises on unknown job, memory or disk
        return LocalJobHandle(self, job_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self, job_id: str, max_cells: Optional[int] = None) -> JobStatus:
        """Drive a job synchronously for up to ``max_cells`` cells.

        The test- and scheduler-facing entry: no thread is spawned,
        the caller's thread does the work, and the job is left RUNNING
        (resumable) if the budget runs out before the grid is full.
        """
        job = self._get(job_id)
        if job.status.state in ACTIVE_STATES:
            self._advance(job, limit=max_cells)
        return job.status

    def _start(self, job: _Job) -> None:
        thread = threading.Thread(
            target=self._advance,
            args=(job,),
            name=f"sweep-job-{job.job_id}",
            daemon=True,
        )
        job.thread = thread
        thread.start()

    def _advance(self, job: _Job, limit: Optional[int] = None) -> None:
        """Walk the job's grid through the dispatcher, in grid order.

        Cancellation and the step budget are checked before each cell
        is taken, so nothing past the dispatch window is started for a
        job that stopped.
        """
        if job.status.state == PENDING:
            self._set_state(job, RUNNING)
        tasks = self.dispatcher.run(
            cell for cell in job.spec.cells()
            if cell.key not in job.done_keys
        )
        recorded = 0
        writer = ManifestWriter(self.store.manifest_path(job.job_id))
        while True:
            if job.cancel_event.is_set():
                self._finalize(job, CANCELLED)
                return
            if limit is not None and recorded >= limit:
                return  # budget spent; job stays RUNNING on disk
            pair = next(tasks, None)
            if pair is None:
                break
            cell, task = pair
            if task.error is not None:
                job.status.error = (
                    f"cell ({cell.tracker}, {cell.workload}) failed"
                    f" after {task.attempts} attempts: {task.error}"
                )
                self._finalize(job, FAILED)
                return
            job.done_keys.add(cell.key)
            job.status.completed_cells += 1
            if task.from_cache:
                job.status.cache_hits += 1
            job.status.retries += max(task.attempts - 1, 0)
            recorded += 1
            writer.append([cell_record(cell, task, job.job_id)])
            self._touch(job)
        self._finalize(job, COMPLETED)

    # -- bookkeeping ---------------------------------------------------

    def _get(self, job_id: str) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise BrokerError(f"unknown job {job_id!r}")
        return job

    def _new_job_id(self, grid: GridSpec) -> str:
        return f"{grid.grid_key()[:8]}-{os.urandom(4).hex()}"

    def _set_state(self, job: _Job, state: str) -> None:
        job.status.state = state
        self._touch(job)

    def _finalize(self, job: _Job, state: str) -> None:
        self._set_state(job, state)

    def _touch(self, job: _Job) -> None:
        job.status.updated_at = self._clock()
        self.store.write_status(job.status)


class LocalJobHandle(JobHandle):
    """JobHandle over a broker living in this process."""

    def __init__(self, broker: SweepBroker, job_id: str) -> None:
        self._broker = broker
        self._job_id = job_id

    @property
    def job_id(self) -> str:
        return self._job_id

    def status(self) -> JobStatus:
        return self._broker.status(self._job_id)

    def events(self) -> Iterator[Dict[str, Any]]:
        seen = 0
        while True:
            records = self._broker.events(self._job_id)
            for record in records[seen:]:
                yield record
            seen = len(records)
            if self.status().done:
                # One last drain: events written between the read
                # above and the terminal transition.
                for record in self._broker.events(self._job_id)[seen:]:
                    yield record
                return
            time.sleep(0.05)

    def result(self, timeout: Optional[float] = None) -> GridResult:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.status().done:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {self._job_id} not done within {timeout}s"
                )
            time.sleep(0.05)
        status = self.status()
        if status.state != COMPLETED:
            raise BrokerError(
                f"job {self._job_id} finished {status.state}:"
                f" {status.error or 'no result'}"
            )
        return self._broker.result(self._job_id)

    def cancel(self) -> JobStatus:
        return self._broker.cancel(self._job_id)
