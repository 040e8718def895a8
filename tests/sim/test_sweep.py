"""Tests for the experiment runner and its result cache."""

import pytest

from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec
from repro.sim.results import Comparison, ComparisonResult
from repro.sim.sweep import ExperimentRunner

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)


@pytest.fixture
def runner(tmp_path) -> ExperimentRunner:
    return ExperimentRunner(CONFIG, cache_dir=tmp_path)


class TestRunner:
    def test_run_and_memoize(self, runner):
        first = runner.run("baseline", "leela")
        second = runner.run("baseline", "leela")
        assert first is second  # in-memory memoization

    def test_disk_cache_roundtrip(self, tmp_path):
        a = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        result = a.run("baseline", "leela")
        b = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        cached = b.run("baseline", "leela")
        assert cached.end_time_ns == result.end_time_ns
        assert list(tmp_path.glob("*.json"))

    def test_different_config_different_key(self, tmp_path):
        a = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        a.run("baseline", "leela")
        b = ExperimentRunner(
            CONFIG.with_trh(250), cache_dir=tmp_path
        )
        b.run("baseline", "leela")
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        runner.run("baseline", "leela")
        for path in tmp_path.glob("*.json"):
            path.write_text("{broken")
        fresh = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        result = fresh.run("baseline", "leela")
        assert result.end_time_ns > 0

    def test_compare_produces_comparisons(self, runner):
        comps = runner.compare("ocpr", ["leela", "povray"])
        assert [c.workload for c in comps] == ["leela", "povray"]
        assert all(c.tracked_ns >= c.baseline_ns * 0.99 for c in comps)

    def test_run_grid_shape(self, runner):
        grid = runner.run_grid(
            GridSpec(trackers=("baseline", "ocpr"), workloads=("leela",))
        )
        assert set(grid) == {"baseline", "ocpr"}
        assert set(grid["baseline"]) == {"leela"}

    def test_trace_memoized(self, runner):
        assert runner.trace_for("leela") is runner.trace_for("leela")


class TestSuiteAggregation:
    def make_comps(self, value):
        from repro.workloads.characteristics import all_names

        return [
            Comparison(name, "t", baseline_ns=1.0, tracked_ns=1.0 / value)
            for name in all_names()
        ]

    def test_suite_geomeans_cover_all_groups(self):
        means = ComparisonResult(self.make_comps(0.9)).suite_geomeans()
        assert set(means) == {
            "SPEC(22)", "PARSEC(7)", "GAP(6)", "GUPS(1)", "ALL(36)",
        }
        for value in means.values():
            assert value == pytest.approx(0.9)

    def test_suite_slowdowns(self):
        slow = ComparisonResult(self.make_comps(0.8)).slowdowns()
        assert slow["ALL(36)"] == pytest.approx(25.0)

    def test_partial_workload_sets(self):
        comps = [Comparison("GUPS", "t", 1.0, 1.25)]
        means = ComparisonResult(comps).suite_geomeans()
        assert means["GUPS(1)"] == pytest.approx(0.8)
        assert "PARSEC(7)" not in means
