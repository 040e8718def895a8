"""The repository benchmark: cold tracker grids and a warm sweep service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-fastpath --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``grid-fastpath``: 4 low-metadata trackers x 6 workloads at scale
  1/128, a two-process pool, fresh result cache per pass.
- ``grid-metadata``: CRA and the no-GCT / no-RCC Hydra ablations x 4
  workloads at scale 1/128, a two-process pool, fresh cache per pass.
- ``service-warm``: a ``SweepService`` over a cache filled at set-up;
  two closed-loop clients submit 1-tracker x 4-workload jobs through
  ``repro.api.sweep(service=...)``. Every cell is a cache hit.

A *job* is one request for a grid of results, from submission to the
results in hand: a whole grid pass on the cold workloads, one remote
4-cell job on ``service-warm``. Every run checks the outputs it
produced (pinned cell digests, agreement between passes, cache round
trips, byte equality with in-process ``repro.api.run``) and prints
every metric by name with its unit, then, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a separate traced run reports the per-layer ones and writes its spans
under ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    DEFAULT_SEED,
    GRIDS,
    SRC,
    WORK,
    WORKLOADS,
    canonical,
    cell_id,
    child_env,
    grid_definition,
    last_json_line,
    load_pins,
    metric_units,
    service_definition,
    use_checkout_src,
)

HERE = Path(__file__).resolve().parent

#: A child process that takes longer than this is treated as hung.
CHILD_TIMEOUT_S = 150.0

# ---------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------


def calibration_score(rounds: int = 5, steps: int = 200_000) -> float:
    """Speed of a fixed pure-Python loop, in million steps per second.

    Recorded with every run (median of ``rounds``), beside ``nproc``
    and the Python version, so that numbers taken on different machines
    can be compared. The loop is independent of the program under test.
    """
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        table = {}
        for i in range(steps):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
            table[acc & 1023] = i
        times.append(time.perf_counter() - started)
    return steps / statistics.median(times) / 1e6


def machine_record() -> Dict[str, Any]:
    return {
        "calibration_msteps_per_s": calibration_score(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    """Largest RSS of this process and its waited-for descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------
# Cold grids
# ---------------------------------------------------------------------


def run_child(argv: List[str], tmp: Path, timeout: float) -> Tuple[int, str, str]:
    """Run a child in its own process group, and kill what is left of
    the group when it returns, overstays ``timeout`` or this process is
    interrupted, so that no pool worker outlives it."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(tmp), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        kill_group(proc)
    return proc.returncode, out, err


def kill_group(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and every process left in its group, and reap
    ``proc``. Members orphaned by it are reaped by :func:`reap_children`."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


# Linux prctl option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants, so that
    a process a child leaves behind can still be killed and waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> List[int]:
    """The pids of this process's children, live or not yet reaped."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_children() -> None:
    """Kill and wait for every child of this process, including the
    orphans it adopted, until none is left."""
    while True:
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def run_grid_pass(workload: str, seed: int, tiny: bool, mode: str, jobs: int,
                  work: Path, tmp: Path) -> Dict[str, Any]:
    """One grid pass in a fresh interpreter; its report, or a failure."""
    if work.exists():
        shutil.rmtree(work)
    args = {"workload": workload, "seed": seed, "tiny": tiny, "mode": mode,
            "jobs": jobs, "work": str(work), "spawn_t": time.monotonic()}
    try:
        code, out, err = run_child(
            [sys.executable, str(HERE / "grid_pass.py"), json.dumps(args)],
            tmp, CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "grid pass timed out"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        return {"error": err.strip()[-2000:] or "grid pass failed"}
    try:
        return last_json_line(out)
    except ValueError as exc:
        return {"error": f"unreadable grid pass report: {exc}"}


def check_cells(workload: str, seed: int, tiny: bool,
                passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Count (pass, cell) failures over a run's passes.

    A cell fails in a pass when the pass crashed, when the pass's own
    checks flagged it, when its digest differs from the digest pinned
    for this seed, or when the passes disagree on it.
    """
    definition = grid_definition(workload, tiny)
    cids = [cell_id(t, w) for t in definition["trackers"]
            for w in definition["workloads"]]
    pinned = {} if tiny else load_pins().get(workload, {}).get(str(seed), {})
    problems: List[str] = []
    bad = set()  # (pass index, cell id)
    digests: Dict[str, set] = {cid: set() for cid in cids}
    for index, report in enumerate(passes):
        if "error" in report:
            bad.update((index, cid) for cid in cids)
            problems.append(report["error"])
            continue
        problems.extend(report["failures"])
        flagged = {f.split(":", 1)[0] for f in report["failures"]}
        for cid in cids:
            got = report["cells"].get(cid)
            digests[cid].add(got)
            if cid in flagged or got is None:
                bad.add((index, cid))
            elif pinned and got != pinned.get(cid):
                bad.add((index, cid))
                problems.append(f"{cid}: digest {got} != pinned {pinned.get(cid)}")
    for cid, seen in digests.items():
        if len(seen) > 1:
            bad.update((index, cid) for index in range(len(passes)))
            problems.append(f"{cid}: passes disagree ({sorted(map(str, seen))})")
    return {"attempted": len(cids) * len(passes), "failed": len(bad),
            "problems": problems}


def grid_workload(workload: str, seed: int, seconds: int, tiny: bool,
                  run_dir: Path, tmp: Path) -> Dict[str, Any]:
    """Grid passes until ``seconds`` have gone by (at least two)."""
    jobs = grid_definition(workload, tiny)["jobs"]
    passes: List[Dict[str, Any]] = []
    started = time.monotonic()
    while len(passes) < 2 or time.monotonic() - started < seconds:
        passes.append(run_grid_pass(workload, seed, tiny, "plain", jobs,
                                    run_dir / "pass", tmp))
    rss = peak_rss_mb()
    good = [p for p in passes if "error" not in p]
    check = check_cells(workload, seed, tiny, passes)
    if not good:
        return {"metrics": {}, "check": check, "detail": {}}
    walls = [p["wall_s"] for p in good]
    metrics = {
        "setup_s": statistics.median(p["ready_s"] for p in good),
        "sim_req_per_s": statistics.median(
            p["requests"] / p["wall_s"] for p in good),
        "job_latency_ms_p50": statistics.median(walls) * 1e3,
        "job_latency_ms_p95": percentile(walls, 95) * 1e3,
        "jobs_per_s": 1 / statistics.median(walls),
        "peak_rss_mb": rss,
    }
    return {"metrics": metrics, "check": check,
            "detail": {"pass_wall_s": [round(w, 4) for w in walls],
                       "pass_setup_s": [round(p["ready_s"], 4) for p in good]}}


def grid_workload_traced(workload: str, seed: int, tiny: bool,
                         run_dir: Path, tmp: Path) -> Dict[str, Any]:
    """Traced grid passes, each paired with an untraced one.

    A pooled grid gets a second pair: a serial replay of the same
    cells, whose traced pass gives the layers that run inside the
    pool. ``trace_overhead_pct`` compares the traced and untraced
    walls of the pairs.
    """
    jobs = grid_definition(workload, tiny)["jobs"]
    pairs = []
    for pass_jobs in ([jobs, 1] if jobs > 1 else [jobs]):
        pairs.append([run_grid_pass(workload, seed, tiny, mode, pass_jobs,
                                    run_dir / "pass", tmp)
                      for mode in ("plain", "traced")])
    passes = [p for pair in pairs for p in pair]
    check = check_cells(workload, seed, tiny, passes)
    if any("error" in p for p in passes):
        return {"metrics": {}, "check": check, "detail": {}}
    traced = pairs[0][1]
    engine_side = pairs[-1][1]
    layers = dict(traced["layers"])
    if jobs > 1:
        from layers import POOL_SIDE

        for name in POOL_SIDE:
            layers[name] = engine_side["layers"][name]
    plain_s = sum(pair[0]["wall_s"] for pair in pairs)
    traced_s = sum(pair[1]["wall_s"] for pair in pairs)
    layers["trace_overhead_pct"] = (traced_s / plain_s - 1) * 100
    traces = {"traced_pass": traced["trace"]}
    if jobs > 1:
        traces["serial_replay"] = engine_side["trace"]
    return {
        "metrics": layers,
        "check": check,
        "detail": {"self_times": engine_side["self_times"], "traces": traces},
    }


# ---------------------------------------------------------------------
# Warm service
# ---------------------------------------------------------------------


class ServiceHost:
    """A ``service_host.py`` child and its stdin/stdout command channel."""

    def __init__(self, seed: int, tiny: bool, work: Path, tmp: Path) -> None:
        args = {"seed": seed, "tiny": tiny, "work": str(work),
                "spawn_t": time.monotonic()}
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "service_host.py"), json.dumps(args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(tmp), start_new_session=True,
        )
        try:
            self.ready = self._read(CHILD_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise

    def _read(self, timeout: float) -> Dict[str, Any]:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError("service host did not answer")
        return json.loads(line)

    def command(self, name: str) -> Dict[str, Any]:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read(60.0)

    def stop(self) -> float:
        """Stop the service; its own peak RSS in MB (0 if it failed)."""
        try:
            peak = self.command("stop")["peak_rss_mb"]
            self.proc.wait(timeout=30)
            return peak
        except (OSError, RuntimeError, KeyError, subprocess.TimeoutExpired):
            return 0.0
        finally:
            self.kill()

    def kill(self) -> None:
        kill_group(self.proc)


class JobSchedule:
    """The seeded job sequence the clients share.

    Jobs come in rounds; one round asks for every cached cell exactly
    once (each tracker's workloads shuffled into groups), so the cells
    served in a run stay balanced whatever the seed.
    """

    def __init__(self, definition: Dict[str, Any], names: List[str],
                 rng_key: str) -> None:
        self.definition = definition
        self.names = names
        self.rng = random.Random(rng_key)
        self.pending: List[Any] = []
        self.lock = threading.Lock()

    def next(self):
        with self.lock:
            if not self.pending:
                size = self.definition["cells_per_job"]
                for tracker in self.definition["trackers"]:
                    names = list(self.names)
                    self.rng.shuffle(names)
                    self.pending.extend(
                        (tracker, names[i:i + size])
                        for i in range(0, len(names), size))
                self.rng.shuffle(self.pending)
            return self.pending.pop()


def run_clients(port: int, config, definition: Dict[str, Any], names: List[str],
                rng_key: str, seconds: float) -> Dict[str, Any]:
    """Closed-loop clients for ``seconds``; one record per job."""
    import repro.api
    from repro.sim.grid import GridSpec

    schedule = JobSchedule(definition, names, rng_key)
    jobs: List[Dict[str, Any]] = []
    lock = threading.Lock()
    service = f"127.0.0.1:{port}"
    started = time.perf_counter()
    deadline = started + seconds
    finished = [started]

    def client() -> None:
        while time.perf_counter() < deadline:
            tracker, workloads = schedule.next()
            grid = GridSpec(trackers=(tracker,), workloads=tuple(workloads),
                            config=config)
            begun = time.perf_counter()
            record = {"tracker": tracker, "workloads": workloads}
            try:
                handle = repro.api.sweep(grid, service=service)
                result = handle.result(timeout=60)
                record["latency_s"] = time.perf_counter() - begun
                record["results"] = [result[tracker][w] for w in workloads]
            except Exception as exc:  # a failed job is counted, not fatal
                record["error"] = repr(exc)
            with lock:
                jobs.append(record)
                finished[0] = max(finished[0], time.perf_counter())

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(definition["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 90)
    return {"jobs": jobs, "wall_s": finished[0] - started}


def check_jobs(jobs: List[Dict[str, Any]], definition: Dict[str, Any],
               seed: int, tmp: Path) -> Dict[str, Any]:
    """Compare every served cell with in-process ``repro.api.run``, run
    in a child (``reference.py``)."""
    cells = sorted({(j["tracker"], w) for j in jobs if "results" in j
                    for w in j["workloads"]}, key=lambda c: (c[1], c[0]))
    args = {"cells": cells, "scale_denominator": definition["scale_denominator"],
            "seed": seed, "chunksize": len(definition["trackers"])}
    failed = 0
    problems: List[str] = []
    reference: Dict[str, str] = {}
    try:
        code, out, err = run_child(
            [sys.executable, str(HERE / "reference.py"), json.dumps(args)],
            tmp, CHILD_TIMEOUT_S)
        if code == 0:
            reference = last_json_line(out)
        else:
            problems.append(err.strip()[-2000:] or "reference run failed")
    except (subprocess.TimeoutExpired, ValueError) as exc:
        problems.append(f"reference run failed: {exc!r}")
    for job in jobs:
        if "error" in job:
            failed += 1
            problems.append(job["error"])
            continue
        wrong = [w for w, result in zip(job["workloads"], job["results"])
                 if canonical(result.to_dict())
                 != reference.get(cell_id(job["tracker"], w))]
        if wrong:
            failed += 1
            problems.append(f"{job['tracker']} x {wrong}: differs from repro.api.run")
    return {"attempted": len(jobs), "failed": failed, "problems": problems}


def job_metrics(phase: Dict[str, Any]) -> Dict[str, float]:
    done = [j for j in phase["jobs"] if "latency_s" in j]
    latencies = [j["latency_s"] for j in done]
    requests = sum(r.requests for j in done for r in j["results"])
    return {
        "sim_req_per_s": requests / phase["wall_s"],
        "job_latency_ms_p50": statistics.median(latencies) * 1e3,
        "job_latency_ms_p95": percentile(latencies, 95) * 1e3,
        "jobs_per_s": len(done) / phase["wall_s"],
    }


def service_workload(seed: int, seconds: int, tiny: bool, trace: bool,
                     run_dir: Path, tmp: Path) -> Dict[str, Any]:
    use_checkout_src()
    from repro.sim.config import SystemConfig
    from repro.workloads.characteristics import all_names

    definition = service_definition(tiny)
    names = list(definition["workloads"] or all_names())
    config = SystemConfig(scale=1.0 / definition["scale_denominator"], seed=seed)
    setups: List[float] = []
    host: Optional[ServiceHost] = None
    try:
        for index in range(definition["setups"]):
            if host is not None:
                host.stop()
            host = ServiceHost(seed, tiny, run_dir / f"service{index}", tmp)
            setups.append(host.ready["ready_s"])
    except BaseException:
        if host is not None:
            host.kill()
        raise
    port = host.ready["port"]
    detail: Dict[str, Any] = {"setups_s": [round(t, 4) for t in setups]}
    try:
        if not trace:
            phase = run_clients(port, config, definition, names, f"{seed}", seconds)
            phases = [phase]
        else:
            from layers import install_client, service_layers
            from tracing import Tracer

            plain = run_clients(port, config, definition, names,
                                f"{seed}:plain", seconds / 2)
            host.command("trace")
            tracer = Tracer()
            job_seconds: Dict[str, float] = {}
            install_client(tracer, job_seconds)
            try:
                traced = run_clients(port, config, definition, names,
                                     f"{seed}:traced", seconds / 2)
            finally:
                tracer.restore()
            server = host.command("dump")
            phases = [plain, traced]
    finally:
        service_rss = host.stop()
    # The set-up's cache-fill workers are left out: their memory depends
    # on which workloads each happened to simulate, and belongs to set-up.
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              service_rss)
    jobs = [j for p in phases for j in p["jobs"]]
    check = check_jobs(jobs, definition, seed, tmp)
    if any("latency_s" not in j for j in jobs) or not jobs:
        return {"metrics": {}, "check": check, "detail": detail}
    if not trace:
        metrics = job_metrics(phases[0])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = rss
        detail["jobs"] = len(jobs)
        return {"metrics": metrics, "check": check, "detail": detail}
    done = [j for j in traced["jobs"] if "latency_s" in j]
    layers = service_layers(tracer, server, job_seconds, len(done))
    plain_p50 = job_metrics(plain)["job_latency_ms_p50"]
    traced_p50 = job_metrics(traced)["job_latency_ms_p50"]
    layers["trace_overhead_pct"] = (traced_p50 / plain_p50 - 1) * 100
    client_self = tracer.self_times()
    self_times = dict(server["self_times"])
    for name, value in client_self.items():
        self_times[name] = self_times.get(name, 0.0) + value
    detail.update(self_times=self_times,
                  traces={"client": tracer.export(), "server": server["trace"]})
    return {"metrics": layers, "check": check, "detail": detail}


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------


def full_metrics(measured: Dict[str, float], trace: bool) -> Dict[str, Any]:
    """Every metric of the run's kind, zero-filled where a layer is idle."""
    units = metric_units("per_layer" if trace else "end_to_end")
    return {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken grids and service (harness smoke test)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like an interrupted one, killing its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    adopt_orphans()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the"
              " root of a full checkout", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    trace = bool(args.trace)
    try:
        if args.workload in GRIDS:
            if trace:
                report = grid_workload_traced(args.workload, args.seed,
                                              args.tiny, run_dir, tmp)
            else:
                report = grid_workload(args.workload, args.seed, args.seconds,
                                       args.tiny, run_dir, tmp)
        else:
            report = service_workload(args.seed, args.seconds, args.tiny,
                                      trace, run_dir, tmp)
    finally:
        reap_children()
        shutil.rmtree(run_dir, ignore_errors=True)

    machine = machine_record()
    check = report["check"]
    complete = bool(report["metrics"])
    metrics = full_metrics(report["metrics"], trace)
    correct = complete and check["failed"] == 0
    detail = report["detail"]
    if trace and complete:
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine,
            "metrics": report["metrics"], "self_times": detail["self_times"],
            "traces": detail["traces"],
        }))
        ranked = sorted(detail["self_times"].items(), key=lambda kv: -kv[1])
        print("self time by span (s):")
        for name, value in ranked:
            print(f"  {name:<24} {value:.6f}")
        print(f"spans written to {trace_path.relative_to(WORK.parent)}")
    for problem in check["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"machine: calibration {machine['calibration_msteps_per_s']:.3f} Msteps/s,"
          f" nproc {machine['nproc']}, python {machine['python']}")
    for key in ("pass_wall_s", "pass_setup_s", "setups_s", "jobs"):
        if key in detail:
            print(f"{key}: {detail[key]}")
    for name, entry in metrics.items():
        print(f"{name:<28} {entry['value']:.6g} {entry['unit']}")
    attempted = max(check["attempted"], 1)
    print(f"{'error_rate':<28} {check['failed'] / attempted:.6g} ratio"
          f" ({check['failed']} of {check['attempted']} failed)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": check["failed"] if complete else attempted,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
