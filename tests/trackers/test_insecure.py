"""MRLOC / ProHIT: average-case protection, worst-case insecurity.

Reproduces the paper's §7.3 claim that these probabilistic designs
"are not secure": the Theorem-1 oracle finds concrete sequences that
exceed the threshold unmitigated — which never happens to the
guaranteed trackers under the same harness.
"""

import pytest

from repro.analysis.security import verify_tracker
from repro.attacks.programs import (
    many_sided_program,
    single_sided_program,
)
from repro.dram.timing import DramGeometry
from repro.trackers.insecure import MrlocTracker, ProhitTracker
from tests.attack_rows import rows

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TH = 50


class TestMrlocAverageCase:
    def test_sustained_hammering_usually_mitigated(self):
        """Statistically, a long hammer train draws many mitigations."""
        tracker = MrlocTracker(base_probability=0.01, seed=1)
        for _ in range(20_000):
            tracker.on_activation(5)
        assert tracker.mitigations > 100

    def test_locality_boost_raises_probability(self):
        tracker = MrlocTracker(base_probability=0.01, locality_boost=8.0)
        assert tracker.probability_for(5) == pytest.approx(0.01)
        tracker._queue.append(5)
        assert tracker.probability_for(5) == pytest.approx(0.08)

    def test_window_reset_clears_queue(self):
        tracker = MrlocTracker()
        tracker._queue.append(5)
        tracker.on_window_reset()
        assert tracker.probability_for(5) == tracker.base_probability

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MrlocTracker(queue_entries=0)
        with pytest.raises(ValueError):
            MrlocTracker(base_probability=0.0)
        with pytest.raises(ValueError):
            MrlocTracker(locality_boost=0.5)


class TestMrlocInsecurity:
    def test_oracle_finds_unmitigated_overflow(self):
        """§7.3: not secure. With realistic per-activation
        probabilities, some seed lets an aggressor exceed the
        threshold unmitigated — and the harness proves it."""
        violated = False
        for seed in range(40):
            tracker = MrlocTracker(base_probability=0.002, seed=seed)
            report = verify_tracker(
                tracker, GEOMETRY, rows(single_sided_program(5, TH + 25)), TH
            )
            if not report.secure:
                violated = True
                assert report.violations[0].row == 5
                break
        assert violated, "expected at least one seed to slip through"


class TestProhitAverageCase:
    def test_single_hot_row_eventually_sampled_and_mitigated(self):
        tracker = ProhitTracker(
            insert_probability=0.05, mitigation_interval=64, seed=3
        )
        for _ in range(20_000):
            tracker.on_activation(5)
        assert tracker.mitigations > 10

    def test_promotion_moves_cold_to_hot(self):
        tracker = ProhitTracker(insert_probability=1.0)
        tracker.on_activation(5)  # inserted cold
        tracker.on_activation(5)  # promoted
        assert 5 in tracker._hot

    def test_window_reset(self):
        tracker = ProhitTracker(insert_probability=1.0)
        tracker.on_activation(5)
        tracker.on_window_reset()
        assert tracker.tabled_rows() == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ProhitTracker(hot_entries=0)
        with pytest.raises(ValueError):
            ProhitTracker(insert_probability=0.0)
        with pytest.raises(ValueError):
            ProhitTracker(mitigation_interval=0)


class TestProhitInsecurity:
    def test_many_sided_attack_evades_sampling(self):
        """Parallel aggressors overwhelm the probabilistic tables:
        some aggressor is never sampled (or never surfaces as the
        hottest) before crossing the threshold."""
        violated = False
        for seed in range(40):
            tracker = ProhitTracker(
                hot_entries=4,
                cold_entries=8,
                insert_probability=0.01,
                mitigation_interval=512,
                seed=seed,
            )
            sequence = rows(many_sided_program(range(100, 164), TH + 10))
            report = verify_tracker(tracker, GEOMETRY, sequence, TH)
            if not report.secure:
                violated = True
                break
        assert violated, "expected sampling to miss an aggressor"


class TestContrastWithGuaranteedTrackers:
    def test_hydra_survives_the_exact_same_attacks(self):
        """The discriminating experiment: identical sequences, same
        oracle — Hydra never violates."""
        from repro.core.config import HydraConfig
        from repro.core.hydra import HydraTracker

        config = HydraConfig(
            geometry=GEOMETRY, trh=2 * TH, gct_entries=16,
            rcc_entries=8, rcc_ways=4,
        )
        for sequence in (
            rows(single_sided_program(5, TH + 25)),
            rows(many_sided_program(range(100, 164), TH + 10)),
        ):
            report = verify_tracker(
                HydraTracker(config), GEOMETRY, sequence, TH
            )
            assert report.secure
