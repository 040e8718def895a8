"""Experiment sweeps: run tracker x workload grids with result caching.

Every figure in the paper's evaluation is a sweep of (tracker
configuration) x (36 workloads), aggregated per suite with geometric
means. :class:`ExperimentRunner` executes those grids, caching each
(config, tracker, workload) run as JSON on disk so the many benchmark
targets that share runs (e.g. Figure 5's Hydra column and Figure 6's
distribution) pay for each simulation once.

Grids are engine-agnostic: ``SystemConfig.engine`` selects the
memory-controller engine (fast in-order vs queued FR-FCFS) for every
cell, and a per-column override rides in the spec string
(``hydra@engine=queued``) — both are part of the cache key, so fast
and queued results share one cache directory without ever being
served for each other.

Grid cells are independent deterministic simulations, so
``run_grid``/``compare`` can fan them out across a process pool: pass
``jobs=N`` (or ``jobs=0`` for one worker per CPU), or set the
``REPRO_JOBS`` environment variable to change the default for every
sweep. Parallel results are identical to serial ones — each worker
rebuilds the same seeded trace and tracker from the picklable
(config, tracker name, workload name) spec — and the disk cache uses
atomic writes (see :mod:`repro.sim.cache`) so concurrent workers and
even concurrent benchmark processes can share one cache directory.

Set ``REPRO_CACHE_DIR`` to relocate the cache; delete it to force
re-simulation.

Provenance: when a manifest destination is configured (an explicit
``manifest_path``, ``$REPRO_MANIFEST``, or — with ``REPRO_OBS=1`` — a
``manifest.jsonl`` next to the cache), every ``run_grid`` appends one
JSON-lines :class:`~repro.obs.manifest.ManifestRecord` per cell:
canonical spec, cache key, engine, cache hit or not, wall time,
throughput. ``hydra-sim report --manifest`` summarizes the log.
"""

from __future__ import annotations

import hashlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.manifest import (
    ManifestRecord,
    ManifestWriter,
    make_record,
    resolve_manifest_path,
)
from repro.sim.cache import ResultCache
from repro.sim.config import (
    CACHE_ENV_VAR,  # noqa: F401  (re-exported; historically lived here)
    SystemConfig,
    default_cache_dir,
    resolve_jobs,
)
from repro.sim.grid import GridSpec
from repro.sim.results import (
    Comparison,  # noqa: F401  (re-exported for established importers)
    ComparisonResult,
    GridResult,
    RunResult,
    geometric_mean,  # noqa: F401  (re-exported for established importers)
)
from repro.sim.simulator import simulate_workload, trace_for_workload
from repro.trackers.registry import canonical_spec
from repro.workloads.streaming import TraceSource

#: Bump to invalidate cached results when the model changes materially.
MODEL_VERSION = "v1"


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


def _run_cell(
    config: SystemConfig,
    tracker_name: str,
    workload_name: str,
    cache_dir: Optional[str],
) -> Tuple[Dict[str, Any], bool, float]:
    """Pool-worker work unit: one cell, through the shared disk cache.

    Returns ``(payload, from_cache, wall_s)`` where ``payload`` is the
    :class:`RunResult` as a plain dict (cheap to pickle back) and
    ``wall_s`` the wall-clock seconds the cell cost this worker. The
    worker fills the disk cache itself so a crash of the parent loses
    no completed work, and racing fills of one key are harmless: the
    simulation is deterministic and the cache write is atomic.
    """
    started = time.perf_counter()
    cache = ResultCache(Path(cache_dir)) if cache_dir else None
    key = cell_key(config, tracker_name, workload_name)
    if cache is not None:
        payload = _validated_payload(cache, key)
        if payload is not None:
            return payload, True, time.perf_counter() - started
    result = simulate_workload(config, tracker_name, workload_name)
    payload = result.to_dict()
    if cache is not None:
        cache.store(key, payload)
    return payload, False, time.perf_counter() - started


def _validated_payload(
    cache: ResultCache, key: str
) -> Optional[Dict[str, Any]]:
    """Load a payload that round-trips into a RunResult, else evict."""
    payload = cache.load(key)
    if payload is None:
        return None
    try:
        RunResult.from_dict(payload)
    except (TypeError, KeyError):
        cache._evict(cache.path_for(key))
        return None
    return payload


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
        use_disk_cache: bool = True,
        jobs: Optional[int] = None,
        manifest_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.use_disk_cache = use_disk_cache
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
        #: Job id stamped onto manifest records of the current grid
        #: ("" outside the sweep service).
        self._manifest_job_id = ""

    # ------------------------------------------------------------------

    def trace_for(self, workload_name: str) -> TraceSource:
        return trace_for_workload(self.config, workload_name)

    def run(self, tracker_name: str, workload_name: str) -> RunResult:
        """One simulation, via the in-memory and on-disk caches."""
        key = self._key(tracker_name, workload_name)
        result = self._results.get(key)
        if result is not None:
            return result
        result = self._load(key)
        if result is None:
            result = simulate_workload(
                self.config, tracker_name, workload_name
            )
            self._store(key, result)
        self._results[key] = result
        return result

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
        job_id: str = "",
    ) -> GridResult:
        """tracker -> workload -> RunResult for the whole grid.

        ``grid`` is a :class:`~repro.sim.grid.GridSpec`; a config it
        carries must match the runner's.

        Returns a :class:`~repro.sim.results.GridResult` — dict-style
        access is unchanged, with ``.comparisons()``/``.slowdowns()``/
        ``.geomean()``/``.to_table()`` on top.

        ``jobs`` > 1 fans uncached cells out over a process pool
        (``jobs=0`` = one worker per CPU; ``None`` defers to the
        runner's default, then ``REPRO_JOBS``, then serial). Results
        are identical to a serial run. ``progress`` forces the
        cells/hits/throughput report on or off (default: on when
        stderr is a terminal). When the runner has a
        ``manifest_path``, one provenance record per cell is appended
        after the grid completes; ``job_id`` stamps those records
        (the sweep service passes its job id here).
        """
        spec = self._own_grid(grid)
        self._manifest_job_id = job_id
        names = spec.resolved_workloads()
        trackers = list(spec.trackers)
        n_jobs = resolve_jobs(jobs if jobs is not None else self.jobs)
        grid: Dict[str, Dict[str, RunResult]] = {t: {} for t in trackers}
        cells = [(t, w) for t in trackers for w in names]
        report = SweepProgress(total=len(cells), enabled=progress)
        records: List[ManifestRecord] = []

        pending: List[Tuple[str, str]] = []
        for tracker, wl in cells:
            started = time.perf_counter()
            key = self._key(tracker, wl)
            result = self._results.get(key)
            if result is None:
                result = self._load(key)
                if result is not None:
                    self._results[key] = result
            if result is not None:
                grid[tracker][wl] = result
                report.record(from_cache=True)
                records.append(
                    self._manifest_record(
                        tracker, wl, result, True,
                        time.perf_counter() - started,
                    )
                )
            else:
                pending.append((tracker, wl))

        if n_jobs > 1 and len(pending) > 1:
            self._run_cells_parallel(pending, grid, n_jobs, report, records)
        else:
            for tracker, wl in pending:
                started = time.perf_counter()
                result = self.run(tracker, wl)
                grid[tracker][wl] = result
                report.record(from_cache=False)
                records.append(
                    self._manifest_record(
                        tracker, wl, result, False,
                        time.perf_counter() - started,
                    )
                )
        report.finish()
        if self.manifest_path is not None and records:
            ManifestWriter(self.manifest_path).append(records)
        # Parallel cells land in completion order; normalize every
        # column to the requested workload order so iteration (and
        # everything derived from it) is deterministic.
        ordered = {
            tracker: {w: grid[tracker][w] for w in names if w in grid[tracker]}
            for tracker in trackers
        }
        return GridResult(ordered)

    def _manifest_record(
        self,
        tracker: str,
        wl: str,
        result: RunResult,
        from_cache: bool,
        wall_s: float,
    ) -> ManifestRecord:
        return make_record(
            cache_key=self._key(tracker, wl),
            spec=canonical_spec(tracker),
            workload=wl,
            engine=result.engine,
            from_cache=from_cache,
            wall_time_s=wall_s,
            requests=result.requests,
            end_time_ns=result.end_time_ns,
            job_id=self._manifest_job_id,
        )

    def _run_cells_parallel(
        self,
        pending: Sequence[Tuple[str, str]],
        grid: Dict[str, Dict[str, RunResult]],
        n_jobs: int,
        report: SweepProgress,
        records: Optional[List[ManifestRecord]] = None,
    ) -> None:
        """Fan cells out over a process pool and collect as completed."""
        cache_dir = str(self.cache_dir) if self.use_disk_cache else None
        workers = min(n_jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_cell, self.config, tracker, wl, cache_dir): (
                    tracker,
                    wl,
                )
                for tracker, wl in pending
            }
            for future in as_completed(futures):
                tracker, wl = futures[future]
                payload, from_cache, wall_s = future.result()
                result = RunResult.from_dict(payload)
                self._results[self._key(tracker, wl)] = result
                grid[tracker][wl] = result
                report.record(from_cache=from_cache)
                if records is not None:
                    records.append(
                        self._manifest_record(
                            tracker, wl, result, from_cache, wall_s
                        )
                    )

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

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _key(self, tracker_name: str, workload_name: str) -> str:
        return cell_key(self.config, tracker_name, workload_name)

    def _load(self, key: str) -> Optional[RunResult]:
        if not self.use_disk_cache:
            return None
        payload = _validated_payload(self.cache, key)
        if payload is None:
            return None
        return RunResult.from_dict(payload)

    def _store(self, key: str, result: RunResult) -> None:
        if not self.use_disk_cache:
            return
        self.cache.store(key, result.to_dict())


def suite_geomeans(comparisons: Iterable[Comparison]) -> Dict[str, float]:
    """Geomean normalized performance per suite (Figure 5's summary).

    Function form of :meth:`ComparisonResult.suite_geomeans`, kept for
    callers holding a plain comparison iterable.
    """
    return ComparisonResult(comparisons).suite_geomeans()


def suite_slowdowns(comparisons: Iterable[Comparison]) -> Dict[str, float]:
    """Percent slowdown per suite (Figures 7/9/10's y-axis)."""
    return ComparisonResult(comparisons).slowdowns()
