"""Tests for parallel sweeps: determinism, racing writers, knobs.

The paper's grids are embarrassingly parallel; these tests pin the
two guarantees the parallel mode makes — results identical to serial
execution, and a disk cache that survives concurrent writers — plus
the REPRO_JOBS/jobs resolution rules and the progress reporter.
"""

import io
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs.manifest import read_manifest
from repro.sim.config import (
    JOBS_ENV_VAR,
    SystemConfig,
    default_jobs,
    resolve_jobs,
)
from repro.sim.grid import GridSpec
from repro.sim.cache import ResultCache
from repro.sim.sweep import ExperimentRunner, SweepProgress, cell_key

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)
TRACKERS = ("baseline", "ocpr")
WORKLOADS = ("leela", "povray", "xz", "mcf")
GRID = GridSpec(trackers=TRACKERS, workloads=WORKLOADS)
GRID_2 = GridSpec(trackers=TRACKERS, workloads=WORKLOADS[:2])
BASELINE_2 = GridSpec(trackers=("baseline",), workloads=WORKLOADS[:2])


def _grid_dicts(grid):
    return {
        tracker: {wl: result.to_dict() for wl, result in column.items()}
        for tracker, column in grid.items()
    }


class TestParallelMatchesSerial:
    def test_grid_identical_2x4(self, tmp_path):
        serial = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "serial"
        ).run_grid(GRID, jobs=1)
        parallel = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "parallel"
        ).run_grid(GRID, jobs=4)
        assert _grid_dicts(parallel) == _grid_dicts(serial)

    def test_parallel_fills_shared_cache_format(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        runner.run_grid(GRID_2, jobs=4)
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 4
        for path in files:
            json.loads(path.read_text())  # every entry is valid JSON
        # A fresh serial runner reuses every parallel-written entry.
        fresh = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        fresh.run_grid(GRID_2, jobs=1)
        assert sorted(tmp_path.glob("*.json")) == files

    def test_compare_parallel_matches_serial(self, tmp_path):
        serial = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "a"
        ).compare("ocpr", WORKLOADS, jobs=1)
        parallel = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "b"
        ).compare("ocpr", WORKLOADS, jobs=3)
        assert parallel == serial


def _racing_writer(cache_dir: str, done_path: str) -> None:
    """One contender: simulate the same cell into the shared cache."""
    runner = ExperimentRunner(CONFIG, cache_dir=cache_dir)
    result = runner.run("baseline", "leela")
    with open(done_path, "w") as fh:
        json.dump({"end_time_ns": result.end_time_ns}, fh)


class TestRacingWriters:
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        """Two runners racing on the same key both finish; the cache
        entry stays parseable and matches the deterministic result."""
        cache_dir = tmp_path / "shared"
        ctx = multiprocessing.get_context()
        outs = [str(tmp_path / f"done{i}.json") for i in range(2)]
        procs = [
            ctx.Process(target=_racing_writer, args=(str(cache_dir), out))
            for out in outs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)

        times = [json.load(open(out))["end_time_ns"] for out in outs]
        assert times[0] == times[1]  # deterministic simulation

        key = cell_key(CONFIG, "baseline", "leela")
        cached = json.loads((cache_dir / f"{key}.json").read_text())
        assert cached["end_time_ns"] == times[0]
        leftovers = [p for p in cache_dir.iterdir() if p.suffix != ".json"]
        assert leftovers == []


class TestCorruptCacheHandling:
    def test_truncated_entry_is_evicted_and_refilled(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        result = runner.run("baseline", "leela")
        key = cell_key(CONFIG, "baseline", "leela")
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[:20])  # truncate mid-object

        fresh = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        refilled = fresh.run("baseline", "leela")
        assert refilled.to_dict() == result.to_dict()
        assert fresh.cache.evictions == 1
        json.loads(path.read_text())  # refilled entry is valid again

    def test_wrong_schema_entry_is_evicted(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        key = cell_key(CONFIG, "baseline", "leela")
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / f"{key}.json").write_text('{"not": "a RunResult"}')
        result = runner.run("baseline", "leela")
        assert result.end_time_ns > 0
        assert runner.cache.evictions == 1


class TestJobsResolution:
    def test_explicit_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("5") == 5

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_default_is_serial_without_env(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert default_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert default_jobs() == 7
        assert resolve_jobs(None) == 7

    def test_runner_default_used_by_run_grid(self, tmp_path, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path, jobs=2)
        grid = runner.run_grid(BASELINE_2)
        assert set(grid["baseline"]) == set(WORKLOADS[:2])


class TestSweepProgress:
    def test_counts_and_throughput(self):
        report = SweepProgress(total=4, enabled=False)
        report.record(from_cache=True)
        report.record(from_cache=False)
        report.record(from_cache=False)
        assert report.done == 3
        assert report.cache_hits == 1
        assert report.simulations == 2
        assert report.sims_per_second() > 0

    def test_enabled_report_writes_status(self):
        stream = io.StringIO()
        report = SweepProgress(total=2, enabled=True, stream=stream)
        report.record(from_cache=True)
        report.record(from_cache=False)
        report.finish()
        out = stream.getvalue()
        assert "2/2 cells" in out
        assert "1 cache hits" in out
        assert "sims/s" in out

    def test_auto_disabled_on_non_tty(self):
        report = SweepProgress(total=10, stream=io.StringIO())
        assert report.enabled is False

    def test_grid_reports_through_stream(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        runner.run_grid(BASELINE_2, progress=False)


def _payload_bytes(grid) -> bytes:
    return json.dumps(grid.to_payload(), sort_keys=True).encode()


def _spy_simulations(monkeypatch, delay_s=0.0, fail_once=None, slow=None):
    """Count ``simulate_workload`` calls per cell as the dispatcher
    makes them; optionally delay every call, fail one cell's first
    attempt, or hold one cell back (``slow``) so it finishes last.

    A process pool forked after the patch inherits it, so its workers
    are slowed too (their counts stay in the workers).
    """
    import repro.sim.sweep as sweep

    real = sweep.simulate_workload
    calls = {}
    lock = threading.Lock()

    def spy(config, tracker, workload, *args, **kwargs):
        with lock:
            calls[(tracker, workload)] = calls.get((tracker, workload), 0) + 1
            attempt = calls[(tracker, workload)]
        if (tracker, workload) == fail_once and attempt == 1:
            raise RuntimeError("worker lost")
        time.sleep(0.5 if (tracker, workload) == slow else delay_s)
        return real(config, tracker, workload, *args, **kwargs)

    monkeypatch.setattr(sweep, "simulate_workload", spy)
    return calls


class TestOneDispatcher:
    """What run_grid gains from sharing the broker's dispatch core."""

    def test_racing_grids_simulate_each_key_once(self, tmp_path, monkeypatch):
        """More grids than cores race on one cache directory, with a
        short thread switch interval: leases still let each key be
        simulated exactly once."""
        calls = _spy_simulations(monkeypatch, delay_s=0.1)
        contenders = 4
        start = threading.Barrier(contenders)
        grids = []

        def contender():
            runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
            start.wait(timeout=60)
            grids.append(runner.run_grid(GRID_2, jobs=1, progress=False))

        threads = [
            threading.Thread(target=contender) for _ in range(contenders)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(grids) == contenders
        assert calls == {(t, w): 1 for t in TRACKERS for w in WORKLOADS[:2]}
        assert len({_payload_bytes(grid) for grid in grids}) == 1
        assert not list(tmp_path.glob("*.lease"))

    def test_failed_cell_is_retried(self, tmp_path, monkeypatch):
        reference = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "reference"
        ).run_grid(GRID_2, jobs=1)
        calls = _spy_simulations(monkeypatch, fail_once=("ocpr", "leela"))
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path / "flaky")
        grid = runner.run_grid(GRID_2, jobs=1)
        assert calls[("ocpr", "leela")] == 2
        assert _payload_bytes(grid) == _payload_bytes(reference)

    def test_serial_and_parallel_grids_and_manifests_match(
        self, tmp_path, monkeypatch
    ):
        # The first cell finishes last under the pool: the manifest
        # must still come out in grid order.
        _spy_simulations(monkeypatch, slow=(TRACKERS[0], WORKLOADS[0]))
        grids, manifests = [], []
        for jobs in (1, 2):
            manifest = tmp_path / f"manifest-{jobs}.jsonl"
            runner = ExperimentRunner(
                CONFIG, cache_dir=tmp_path / f"cache-{jobs}",
                manifest_path=manifest,
            )
            grids.append(runner.run_grid(GRID, jobs=jobs, progress=False))
            records, skipped = read_manifest(manifest)
            assert skipped == 0
            manifests.append(
                [
                    (r.cache_key, r.spec, r.workload, r.engine,
                     r.from_cache, r.requests, r.end_time_ns)
                    for r in records
                ]
            )
        assert _payload_bytes(grids[0]) == _payload_bytes(grids[1])
        assert manifests[0] == manifests[1]
        assert [(spec, wl) for _, spec, wl, *_ in manifests[1]] == [
            (t, w) for t in TRACKERS for w in WORKLOADS
        ]
        assert not any(record[4] for record in manifests[1])  # all fills

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spellings_of_one_tracker_each_get_their_column(
        self, tmp_path, jobs
    ):
        """Two spellings of one canonical tracker share a cache key
        and a fill, but each keeps its own column, cold and warm."""
        spellings = ("hydra@trh=250,rcc_ways=8", "hydra@rcc_ways=8,trh=250")
        grid = GridSpec(trackers=spellings, workloads=WORKLOADS[:2])
        manifest = tmp_path / "manifest.jsonl"
        runner = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "cache", manifest_path=manifest
        )
        cold = runner.run_grid(grid, jobs=jobs, progress=False)
        warm = ExperimentRunner(CONFIG, cache_dir=tmp_path / "cache").run_grid(
            grid, jobs=jobs, progress=False
        )
        for result in (cold, warm):
            assert list(result) == list(spellings)
            for tracker in spellings:
                assert list(result[tracker]) == list(WORKLOADS[:2])
            assert result[spellings[0]] == result[spellings[1]]
        assert _payload_bytes(cold) == _payload_bytes(warm)
        records, _ = read_manifest(manifest)
        assert [r.workload for r in records] == list(WORKLOADS[:2]) * 2

    def test_lease_of_a_killed_run_does_not_stall_the_grid(self, tmp_path):
        """A lease left by a process that exited mid-fill is reclaimed
        at once, well inside its 300-s expiry."""
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        cache = ResultCache(tmp_path)
        key = cell_key(CONFIG, "baseline", "leela")
        owner = f"{socket.gethostname()}:{dead.pid}:killed"
        assert cache.lease(key, owner, ttl_s=300)
        started = time.monotonic()
        grid = ExperimentRunner(CONFIG, cache_dir=tmp_path).run_grid(
            GridSpec(trackers=("baseline",), workloads=("leela",)),
            progress=False,
        )
        assert time.monotonic() - started < 60
        assert grid["baseline"]["leela"].requests > 0
        assert not list(tmp_path.glob("*.lease"))
