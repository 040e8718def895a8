"""Tests for the Randomized Row-Swap mitigation extension (§8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HydraConfig
from repro.core.hydra import HydraTracker
from repro.dram.timing import DramGeometry, DramTiming
from repro.memctrl.base import drive_in_order
from repro.memctrl.rowswap import RowIndirectionTable, RowSwapController
from repro.workloads.trace import Trace

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)


class TestRowIndirectionTable:
    def test_identity_by_default(self):
        table = RowIndirectionTable(1024)
        assert table.physical_of(5) == 5
        assert table.logical_of(5) == 5
        assert table.remapped_rows() == 0

    def test_swap_exchanges_identities(self):
        table = RowIndirectionTable(1024)
        table.swap(5, 9)
        assert table.physical_of(5) == 9
        assert table.physical_of(9) == 5
        assert table.logical_of(9) == 5

    def test_swap_back_restores_identity(self):
        table = RowIndirectionTable(1024)
        table.swap(5, 9)
        table.swap(9, 5)
        assert table.remapped_rows() == 0
        assert table.physical_of(5) == 5

    def test_chained_swaps(self):
        table = RowIndirectionTable(1024)
        table.swap(5, 9)  # logical 5 now at 9
        table.swap(9, 20)  # logical 5 now at 20
        assert table.physical_of(5) == 20
        assert table.logical_of(20) == 5
        assert table.verify_bijection()

    def test_self_swap_is_noop(self):
        table = RowIndirectionTable(1024)
        table.swap(5, 5)
        assert table.swaps_performed == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RowIndirectionTable(10).swap(0, 10)
        with pytest.raises(ValueError):
            RowIndirectionTable(0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60)
    def test_always_a_bijection(self, swaps):
        table = RowIndirectionTable(64)
        for a, b in swaps:
            table.swap(a, b)
            assert table.verify_bijection()
        # Round-trip property: logical_of(physical_of(x)) == x.
        for logical in range(64):
            assert table.logical_of(table.physical_of(logical)) == logical


class TestRowSwapController:
    def make(self) -> RowSwapController:
        config = HydraConfig(
            geometry=GEOMETRY, trh=100, gct_entries=16,
            rcc_entries=8, rcc_ways=4,
        )
        return RowSwapController(
            GEOMETRY, TIMING, HydraTracker(config), seed=3
        )

    def hammer(self, mc, logical_row, times):
        t = 0.0
        for _ in range(times):
            t = mc.access(t, logical_row)
            # Close the row so each access activates.
            physical = mc.indirection.physical_of(logical_row)
            mc.banks[physical // GEOMETRY.rows_per_bank].precharge_all()
        return t

    def test_hammering_triggers_swap(self):
        mc = self.make()
        self.hammer(mc, logical_row=7, times=120)
        assert mc.indirection.swaps_performed >= 1
        assert mc.indirection.physical_of(7) != 7

    def test_swap_costs_data_movement(self):
        mc = self.make()
        self.hammer(mc, logical_row=7, times=120)
        lines_per_swap = 4 * GEOMETRY.lines_per_row
        assert (
            mc.swap_data_lines
            == mc.indirection.swaps_performed * lines_per_swap
        )

    def test_swap_partner_stays_in_bank(self):
        mc = self.make()
        self.hammer(mc, logical_row=7, times=300)
        for logical in (7,):
            physical = mc.indirection.physical_of(logical)
            assert physical // GEOMETRY.rows_per_bank == 0

    def test_accesses_follow_the_moved_row(self):
        """After a swap the same logical row maps to a new physical
        location, and tracking continues there."""
        mc = self.make()
        self.hammer(mc, logical_row=7, times=120)
        moved_to = mc.indirection.physical_of(7)
        before = mc.indirection.swaps_performed
        self.hammer(mc, logical_row=7, times=120)
        # Continued hammering re-triggers mitigation at the new spot.
        assert mc.indirection.swaps_performed > before
        assert mc.indirection.physical_of(7) != moved_to

    def test_no_physical_row_accumulates_past_threshold(self):
        """The RRS property: hammering one logical row never parks
        more than ~T_H activations on any single physical location."""
        mc = self.make()
        tracker = mc.tracker
        self.hammer(mc, logical_row=7, times=600)
        # Every mitigation relocated the row, so the per-row counter
        # never exceeded T_H before being moved & reset.
        assert tracker.stats.mitigations >= 3

    def test_run_trace_swaps_like_access(self):
        """``run_trace`` must translate and swap exactly as the
        per-request ``access`` path does, not take the parent's fused
        loop (which bypasses both overrides)."""
        trace = Trace.from_rows([7, 9] * 300)
        via_run_trace = self.make()
        outcome = via_run_trace.run_trace(trace, mlp=16)
        via_access = self.make()
        expected = drive_in_order(trace, via_access.access, 16)
        assert outcome == expected
        assert via_run_trace.stats == via_access.stats
        assert via_access.indirection.swaps_performed > 0
        assert (
            via_run_trace.indirection.swaps_performed
            == via_access.indirection.swaps_performed
        )
        assert (
            via_run_trace.indirection._forward
            == via_access.indirection._forward
        )
        assert via_run_trace.swap_data_lines == via_access.swap_data_lines
