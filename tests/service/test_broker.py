"""Broker tests: kill/resume, in-flight dedup, retry/backoff, leases."""

import json
import threading

import pytest

from repro.service.broker import BrokerError, SweepBroker
from repro.service.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
)
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)
GRID = GridSpec(
    trackers=("baseline", "hydra"),
    workloads=("leela", "gcc"),
    config=CONFIG,
)


def make_broker(tmp_path, **kwargs):
    kwargs.setdefault("pool", "inline")
    return SweepBroker(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        **kwargs,
    )


def payload_bytes(grid_result) -> bytes:
    return json.dumps(grid_result.to_payload(), sort_keys=True).encode()


class TestLifecycle:
    def test_submit_and_step_to_completion(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        assert broker.status(job_id).state == PENDING
        broker.step(job_id)
        status = broker.status(job_id)
        assert status.state == COMPLETED
        assert status.completed_cells == status.total_cells == 4
        result = broker.result(job_id)
        assert sorted(result) == ["baseline", "hydra"]
        assert sorted(result["hydra"]) == ["gcc", "leela"]

    def test_submit_requires_config(self, tmp_path):
        broker = make_broker(tmp_path)
        with pytest.raises(ValueError):
            broker.submit(GridSpec(trackers=("hydra",), workloads=("leela",)))

    def test_result_before_done_raises(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        with pytest.raises(BrokerError):
            broker.result(job_id)

    def test_unknown_job_raises(self, tmp_path):
        broker = make_broker(tmp_path)
        with pytest.raises(BrokerError):
            broker.status("nope")

    def test_events_carry_job_id(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        events = broker.events(job_id)
        assert len(events) == 4
        assert all(e["job_id"] == job_id for e in events)
        assert all(e["kind"] == "cell" for e in events)

    def test_cancel_pending_job(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        status = broker.cancel(job_id)
        assert status.state == CANCELLED
        # Terminal: stepping does nothing further.
        broker.step(job_id)
        assert broker.status(job_id).state == CANCELLED

    def test_background_thread_completes(self, tmp_path):
        broker = make_broker(tmp_path, pool="thread", workers=2)
        job_id = broker.submit(GRID)
        result = broker.handle(job_id).result(timeout=120)
        assert sorted(result) == ["baseline", "hydra"]
        broker.shutdown()


class TestKillResume:
    def test_preempt_then_resume_zero_rerun(self, tmp_path):
        """The e2e acceptance path: kill mid-grid, resume, complete.

        Cells simulated before the 'kill' must not re-run (asserted
        via the cache's store counter), and the resumed job's
        GridResult must be byte-identical to an uninterrupted run.
        """
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id, max_cells=2)
        first_stores = broker.cache.stores
        assert broker.status(job_id).state == RUNNING
        assert broker.status(job_id).completed_cells == 2
        del broker  # the "kill": only disk state survives

        revived = make_broker(tmp_path)
        assert revived.resume(start=False) == [job_id]
        assert revived.status(job_id).completed_cells == 2
        revived.step(job_id)
        status = revived.status(job_id)
        assert status.state == COMPLETED
        assert status.completed_cells == 4
        # Every unique cell was simulated exactly once across both
        # broker lifetimes.
        assert first_stores + revived.cache.stores == 4
        # No duplicate manifest records either.
        assert len(revived.events(job_id)) == 4

        fresh = make_broker(tmp_path / "uninterrupted")
        ref_id = fresh.submit(GRID, start=False)
        fresh.step(ref_id)
        assert payload_bytes(revived.result(job_id)) == payload_bytes(
            fresh.result(ref_id)
        )

    def test_resume_ignores_terminal_jobs(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        assert broker.status(job_id).state == COMPLETED
        revived = make_broker(tmp_path)
        assert revived.resume(start=False) == []
        # But its status stays readable from disk.
        assert revived.status(job_id).state == COMPLETED

    def test_result_survives_restart(self, tmp_path):
        """A job completed in a previous broker life still serves its
        result (and a handle) from persisted spec + cache — no
        resume() needed."""
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        expected = payload_bytes(broker.result(job_id))
        del broker

        revived = make_broker(tmp_path)
        assert payload_bytes(revived.result(job_id)) == expected
        assert revived.handle(job_id).status().state == COMPLETED


class TestDedup:
    def test_two_jobs_fill_each_key_once(self, tmp_path):
        """Same grid submitted twice concurrently: each unique cache
        key is written exactly once (the acceptance criterion)."""
        gate = threading.Event()
        keys_run = []
        lock = threading.Lock()

        from repro.sim.sweep import run_cell

        def gated_runner(config, tracker, workload, cache, ttl, **kw):
            gate.wait(timeout=60)  # hold cells until both jobs queued
            with lock:
                keys_run.append((tracker, workload))
            return run_cell(config, tracker, workload, cache, ttl, **kw)

        broker = make_broker(
            tmp_path, pool="thread", workers=4, cell_runner=gated_runner
        )
        a = broker.submit(GRID)
        b = broker.submit(GRID)
        gate.set()
        res_a = broker.handle(a).result(timeout=120)
        res_b = broker.handle(b).result(timeout=120)
        assert payload_bytes(res_a) == payload_bytes(res_b)
        # 4 unique cells; the second job shared in-flight tasks or hit
        # the cache — the cache was written exactly once per key.
        assert broker.cache.stores == 4
        status_b = broker.status(b)
        assert status_b.completed_cells == 4
        broker.shutdown()

    def test_second_submission_after_completion_is_all_hits(self, tmp_path):
        broker = make_broker(tmp_path)
        first = broker.submit(GRID, start=False)
        broker.step(first)
        assert broker.cache.stores == 4
        second = broker.submit(GRID, start=False)
        broker.step(second)
        status = broker.status(second)
        assert status.state == COMPLETED
        assert status.cache_hits == 4
        assert broker.cache.stores == 4  # nothing re-simulated


class TestRetry:
    def test_flaky_cell_retries_with_backoff(self, tmp_path):
        """First two attempts of one cell fail; backoff sleeps follow
        the exponential schedule; the job still completes."""
        from repro.sim.sweep import run_cell

        failures = {"n": 0}
        sleeps = []

        def flaky_runner(config, tracker, workload, cache, ttl, **kw):
            if workload == "gcc" and tracker == "hydra" and failures["n"] < 2:
                failures["n"] += 1
                raise RuntimeError("worker lost")
            return run_cell(config, tracker, workload, cache, ttl, **kw)

        broker = make_broker(
            tmp_path,
            cell_runner=flaky_runner,
            max_retries=2,
            backoff_s=0.5,
            sleep=sleeps.append,
        )
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status = broker.status(job_id)
        assert status.state == COMPLETED
        assert status.retries == 2
        assert sleeps == [0.5, 1.0]  # backoff_s * 2**(attempt-1)

    def test_exhausted_retries_fail_the_job(self, tmp_path):
        def doomed_runner(*args, **kwargs):
            raise RuntimeError("always broken")

        sleeps = []
        broker = make_broker(
            tmp_path,
            cell_runner=doomed_runner,
            max_retries=2,
            sleep=sleeps.append,
        )
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status = broker.status(job_id)
        assert status.state == FAILED
        assert "always broken" in status.error
        assert len(sleeps) == 2  # attempts 1..3, backoff between them

    def test_failure_only_after_cached_prefix(self, tmp_path):
        """A failed job keeps its completed cells in the cache; a
        retry submission reuses them."""

        def doomed_runner(*args, **kwargs):
            raise RuntimeError("broken")

        good = make_broker(tmp_path)
        first = good.submit(
            GridSpec(
                trackers=("baseline",),
                workloads=("leela", "gcc"),
                config=CONFIG,
            ),
            start=False,
        )
        good.step(first)
        stores = good.cache.stores

        bad = make_broker(tmp_path, cell_runner=doomed_runner, sleep=lambda s: None)
        job_id = bad.submit(GRID, start=False)
        bad.step(job_id)
        status = bad.status(job_id)
        assert status.state == FAILED
        # The baseline cells came from the cache before the failure.
        assert status.cache_hits == stores == 2


class TestClockInjection:
    def test_status_timestamps_use_injected_clock(self, tmp_path):
        now = {"t": 1000.0}
        broker = make_broker(tmp_path, clock=lambda: now["t"])
        job_id = broker.submit(GRID, start=False)
        assert broker.status(job_id).created_at == 1000.0
        now["t"] = 2000.0
        broker.step(job_id)
        assert broker.status(job_id).updated_at == 2000.0
