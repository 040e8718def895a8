"""Tests for the benchmark harness helpers (benchmarks/_common.py).

The benchmark files are collected separately (pytest-benchmark runs),
but their shared helpers carry logic worth pinning from the tier-1
suite — notably ``all_slowdown``'s behavior on reduced workload lists.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from _common import all_slowdown  # noqa: E402
from bench_engine_throughput import (  # noqa: E402
    DEFAULT_CELLS,
    cells_for_engines,
)

from repro.memctrl import ENGINES  # noqa: E402
from repro.sim.results import Comparison  # noqa: E402
from repro.workloads.characteristics import all_names  # noqa: E402


def comp(name: str, slowdown_fraction: float) -> Comparison:
    return Comparison(
        workload=name,
        tracker="t",
        baseline_ns=100.0,
        tracked_ns=100.0 * (1.0 + slowdown_fraction),
    )


class TestAllSlowdown:
    def test_full_grid_uses_all36_geomean(self):
        comparisons = [comp(name, 0.25) for name in all_names()]
        assert all_slowdown(comparisons) == pytest.approx(25.0)

    def test_reduced_workload_list_does_not_keyerror(self):
        """Regression: a subset outside the paper's Table-3 suites
        used to die with a bare ``KeyError: 'ALL(36)'``."""
        comparisons = [comp("GUPS", 0.10), comp("mix-custom", 0.10)]
        assert all_slowdown(comparisons) == pytest.approx(10.0)

    def test_subset_geomean_matches_hand_computation(self):
        comparisons = [comp("custom-a", 0.0), comp("custom-b", 0.21)]
        # geomean of 1.0 and 1/1.21 normalized perfs = 1/1.1.
        assert all_slowdown(comparisons) == pytest.approx(10.0)

    def test_empty_input_raises_clearly(self):
        with pytest.raises(ValueError, match="at least one comparison"):
            all_slowdown([])


class TestEngineCellSelection:
    def test_default_cells_cover_every_engine(self):
        assert {engine for _, engine in DEFAULT_CELLS} == set(ENGINES)

    def test_engines_filter_keeps_order(self):
        assert cells_for_engines(["queued"]) == (("hydra", "queued"),)
        both = cells_for_engines(["queued", "fast"])
        assert both == DEFAULT_CELLS

    def test_unknown_engine_filter_exits(self):
        with pytest.raises(SystemExit, match="no benchmark cells"):
            cells_for_engines(["warp"])
