"""Tests for the Counter-based Adaptive Tree tracker."""

import pytest

from repro.analysis.security import verify_tracker
from repro.attacks.programs import (
    double_sided_program,
    many_sided_program,
    single_sided_program,
)
from repro.dram.timing import DramGeometry
from repro.trackers.cat import CatTracker
from tests.attack_rows import rows

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


def make(trh=100, counters=256, split_fraction=0.25) -> CatTracker:
    return CatTracker(
        GEOMETRY,
        trh=trh,
        counters_per_bank=counters,
        split_fraction=split_fraction,
    )


class TestAdaptation:
    def test_starts_with_one_counter_per_bank(self):
        tracker = make()
        assert tracker.counters_in_use() == GEOMETRY.total_banks

    def test_hot_row_earns_single_row_leaf(self):
        tracker = make()
        for _ in range(60):
            tracker.on_activation(5)
        leaf = tracker._trees[0].leaf_for(5)
        assert leaf.span == 1
        assert tracker.splits > 0

    def test_cold_regions_stay_coarse(self):
        tracker = make()
        for _ in range(60):
            tracker.on_activation(5)
        other_bank_leaf = tracker._trees[1].leaf_for(5)
        assert other_bank_leaf.span == GEOMETRY.rows_per_bank

    def test_children_inherit_parent_count(self):
        """Inheritance keeps every node's count an overestimate."""
        tracker = make(split_fraction=0.5)
        for _ in range(49):
            tracker.on_activation(5)
        leaf = tracker._trees[0].leaf_for(5)
        assert leaf.count >= 49 - 1  # counts carried down the splits


class TestMitigation:
    def test_single_row_leaf_mitigates_at_threshold(self):
        tracker = make(trh=100)
        mitigated = False
        for i in range(1, 51):
            response = tracker.on_activation(5)
            if response and 5 in response.mitigate_rows:
                mitigated = True
                assert i <= 50  # at or before T_H
                break
        assert mitigated

    def test_saturated_leaf_mitigates_every_activation(self):
        """With a starved counter pool, CAT degrades securely to
        mitigate-on-every-activation of the saturated range."""
        tracker = make(trh=100, counters=1)  # can never split
        responses = [tracker.on_activation(5) for _ in range(50)]
        assert responses[-1] is not None
        assert responses[-1].mitigate_rows == (5,)
        # Once saturated, every further activation mitigates its row.
        follow_up = tracker.on_activation(7)
        assert follow_up.mitigate_rows == (7,)
        assert tracker.range_mitigations >= 2

    def test_window_reset_restores_coarse_tree(self):
        tracker = make()
        for _ in range(60):
            tracker.on_activation(5)
        tracker.on_window_reset()
        assert tracker.counters_in_use() == GEOMETRY.total_banks


class TestSecurity:
    def test_theorem_holds_under_double_sided(self):
        tracker = make(trh=100)
        report = verify_tracker(
            tracker, GEOMETRY, rows(double_sided_program(500, 1000)), 50
        )
        assert report.secure

    def test_theorem_holds_under_many_sided(self):
        tracker = make(trh=100)
        seq = rows(many_sided_program(range(64, 96), rounds=120))
        report = verify_tracker(tracker, GEOMETRY, seq, 50)
        assert report.secure

    def test_theorem_holds_with_tiny_pool(self):
        tracker = make(trh=100, counters=3)
        report = verify_tracker(
            tracker, GEOMETRY, rows(single_sided_program(5, 600)), 50
        )
        assert report.secure


class TestSizing:
    def test_default_budget_tracks_table1(self):
        from repro.trackers.storage import cat_bytes_per_rank

        tracker = CatTracker(GEOMETRY, trh=500)
        per_rank_default = cat_bytes_per_rank(500) // 4
        assert tracker.sram_bytes() > 0
        assert (
            tracker._trees[0].counter_budget
            >= per_rank_default // GEOMETRY.banks_per_rank // 2
        )

    def test_rejects_bad_split_fraction(self):
        with pytest.raises(ValueError):
            make(split_fraction=0.0)
