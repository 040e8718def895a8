"""Simulation harness: configs, runner, sweeps, result records."""

from repro.sim.cache import ResultCache
from repro.sim.config import (
    SystemConfig,
    baseline_table2,
    default_cache_dir,
    default_jobs,
    default_scale,
    resolve_jobs,
)
from repro.sim.grid import GridCell, GridSpec
from repro.sim.results import (
    SCHEMA_VERSION,
    WELL_KNOWN_EXTRAS,
    Comparison,
    ComparisonResult,
    GridResult,
    RunResult,
    geometric_mean,
)
from repro.sim.simulator import (
    make_tracker,
    simulate,
    simulate_workload,
    trace_for_workload,
)
from repro.sim.spec import DEFAULT_TRACKER, RunSpec
from repro.sim.sweep import (
    ExperimentRunner,
    SweepProgress,
    cell_key,
)

__all__ = [
    "Comparison",
    "ComparisonResult",
    "DEFAULT_TRACKER",
    "ExperimentRunner",
    "GridCell",
    "GridResult",
    "GridSpec",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "SCHEMA_VERSION",
    "SweepProgress",
    "SystemConfig",
    "WELL_KNOWN_EXTRAS",
    "baseline_table2",
    "cell_key",
    "default_cache_dir",
    "default_jobs",
    "default_scale",
    "geometric_mean",
    "make_tracker",
    "resolve_jobs",
    "simulate",
    "simulate_workload",
    "trace_for_workload",
]
