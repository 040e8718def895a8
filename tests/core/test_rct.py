"""Tests for the DRAM-resident Row-Count Table."""

import pytest

from repro.core.rct import RowCountTable
from repro.dram.timing import PAPER_GEOMETRY, DramGeometry
from repro.interfaces import MetaAccess

SMALL = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


class TestLayout:
    def test_paper_scale_reservation_is_4mb(self):
        """§4.4: 4M rows x 1 B = 4 MB of reserved DRAM, 512 rows."""
        rct = RowCountTable(PAPER_GEOMETRY, counter_bytes=1)
        assert rct.total_meta_rows == 512
        assert rct.dram_reserved_bytes() == 4 * 1024 * 1024

    def test_meta_rows_at_top_of_each_bank(self):
        rct = RowCountTable(SMALL, counter_bytes=1)
        # 1024 rows x 1 B / 256 B rows = 4 meta rows per bank.
        assert rct.meta_rows_per_bank == 4
        assert rct.meta_base_local == 1020
        assert rct.is_meta_row(1020)
        assert rct.is_meta_row(1023)
        assert not rct.is_meta_row(1019)
        # Same structure in the second bank.
        assert rct.is_meta_row(1024 + 1020)
        assert not rct.is_meta_row(1024)

    def test_meta_row_of_stays_in_same_bank(self):
        rct = RowCountTable(SMALL, counter_bytes=1)
        for row in (0, 255, 256, 1019, 1024, 2043):
            meta = rct.meta_row_of(row)
            assert meta // 1024 == row // 1024
            assert rct.is_meta_row(meta)

    def test_counters_fill_meta_rows_in_order(self):
        rct = RowCountTable(SMALL, counter_bytes=1)
        assert rct.meta_row_of(0) == 1020
        assert rct.meta_row_of(255) == 1020
        assert rct.meta_row_of(256) == 1021

    def test_wider_counters_need_more_meta_rows(self):
        narrow = RowCountTable(SMALL, counter_bytes=1)
        wide = RowCountTable(SMALL, counter_bytes=2)
        assert wide.meta_rows_per_bank == 2 * narrow.meta_rows_per_bank


class TestMetaPair:
    """``meta_pair``: the interned single-line RMW of a row's counter."""

    @pytest.mark.parametrize("counter_bytes", [1, 2])
    def test_matches_meta_row_of_for_every_row(self, counter_bytes):
        # Every row of both banks: bank boundaries (0, 1023, 1024,
        # 2047), meta-row boundaries and the meta region itself.
        rct = RowCountTable(SMALL, counter_bytes=counter_bytes)
        counters_per_meta_row = 256 // counter_bytes
        for row in range(SMALL.total_rows):
            meta_row = rct.meta_row_of(row)
            bank, local = divmod(row, 1024)
            assert meta_row == (
                bank * 1024 + rct.meta_base_local
                + local // counters_per_meta_row
            )
            assert rct.meta_pair(row) == (
                MetaAccess(meta_row, 1, False),
                MetaAccess(meta_row, 1, True),
            )

    def test_one_interned_pair_per_meta_row(self):
        rct = RowCountTable(SMALL, counter_bytes=1)
        pairs = {row: rct.meta_pair(row) for row in range(SMALL.total_rows)}
        assert len({id(p) for p in pairs.values()}) == rct.total_meta_rows
        assert rct.meta_pair(0) is rct.meta_pair(255)
        assert rct.meta_pair(0) is not rct.meta_pair(256)
        assert rct.meta_pair(1023) is not rct.meta_pair(1024)

    def test_same_objects_after_resets(self):
        rct = RowCountTable(SMALL, counter_bytes=1)
        before = [rct.meta_pair(row) for row in range(SMALL.total_rows)]
        rct.write(5, 9)
        rct.reset_all()
        rct.init_group(0, 128, 3)
        after = [rct.meta_pair(row) for row in range(SMALL.total_rows)]
        assert all(a is b for a, b in zip(before, after))

    def test_survives_tracker_window_resets(self):
        from repro.core.config import HydraConfig
        from repro.core.hydra import HydraTracker
        from repro.trackers.cra import CraTracker

        nogct = HydraTracker(
            HydraConfig(
                geometry=SMALL, trh=100, gct_entries=16,
                rcc_entries=8, rcc_ways=4, enable_gct=False,
            )
        )
        cra = CraTracker(SMALL, trh=100)
        for tracker, table in ((nogct, nogct.rct), (cra, cra.table)):
            pair = table.meta_pair(7)
            tracker.on_window_reset()  # both zero their table here
            assert table.meta_pair(7) is pair


class TestCounters:
    def test_read_write_roundtrip(self):
        rct = RowCountTable(SMALL)
        rct.write(5, 123)
        assert rct.read(5) == 123

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RowCountTable(SMALL).write(0, -1)

    def test_reset_all(self):
        rct = RowCountTable(SMALL)
        rct.write(5, 9)
        rct.reset_all()
        assert rct.read(5) == 0


class TestGroupInit:
    def test_sets_all_group_counters(self):
        rct = RowCountTable(SMALL)
        rct.init_group(0, 128, 200)
        assert all(rct.read(r) == 200 for r in range(128))
        assert rct.read(128) == 0

    def test_costs_two_reads_two_writes(self):
        """§4.4: a 128-row group (128 B of counters) spans two lines."""
        rct = RowCountTable(SMALL)
        accesses = rct.init_group(0, 128, 200)
        reads = [a for a in accesses if not a.is_write]
        writes = [a for a in accesses if a.is_write]
        assert len(reads) == len(writes) == 1
        assert reads[0].n_lines == writes[0].n_lines == 2

    def test_meta_traffic_targets_group_meta_row(self):
        rct = RowCountTable(SMALL)
        accesses = rct.init_group(256, 128, 200)
        assert all(a.row_id == rct.meta_row_of(256) for a in accesses)

    def test_overwrites_stale_counts(self):
        """§4.6: skipping the RCT reset is safe because init overwrites."""
        rct = RowCountTable(SMALL)
        rct.write(3, 77)  # stale from a previous window
        rct.init_group(0, 128, 200)
        assert rct.read(3) == 200

    def test_rejects_misaligned_group(self):
        with pytest.raises(ValueError):
            RowCountTable(SMALL).init_group(5, 128, 200)


class TestValidation:
    def test_rejects_bad_counter_size(self):
        with pytest.raises(ValueError):
            RowCountTable(SMALL, counter_bytes=0)

    def test_rejects_geometry_too_small(self):
        tiny = DramGeometry(
            channels=1,
            ranks_per_channel=1,
            banks_per_rank=1,
            rows_per_bank=1,
            row_size_bytes=64,
        )
        with pytest.raises(ValueError):
            RowCountTable(tiny, counter_bytes=64)
