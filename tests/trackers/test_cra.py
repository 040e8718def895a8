"""Tests for CRA (per-row DRAM counters + line-granularity cache)."""

import pytest

from repro.dram.timing import DramGeometry
from repro.interfaces import MetaAccess
from repro.trackers.cra import CraTracker, LineMetadataCache

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


def cra_with_one_set(trh=100) -> CraTracker:
    """CRA whose metadata cache is a single 16-way set of lines."""
    return CraTracker(GEOMETRY, trh=trh, cache_bytes=16 * 64, cache_ways=16)


def resident_lines(tracker: CraTracker):
    """Lines of the single cache set, least recently used first."""
    return list(tracker.cache._sets[0])


class TestLineMetadataCache:
    """The line cache as CRA drives it (64 counters per 64 B line)."""

    def test_miss_installs(self):
        tracker = cra_with_one_set()
        response = tracker.on_activation(64)
        assert response.meta_accesses == (
            MetaAccess(tracker.table.meta_row_of(64), 1, False),
        )
        assert tracker.on_activation(65) is None  # same line: a hit
        assert (tracker.cache.misses, tracker.cache.hits) == (1, 1)
        assert resident_lines(tracker) == [1]

    def test_dirty_eviction_reported(self):
        tracker = cra_with_one_set()
        for line in range(16):
            tracker.on_activation(line * 64)
        response = tracker.on_activation(16 * 64)
        # Every counter line is written when fetched, so the evicted
        # LRU line (line 0, first installed) is written back.
        assert response.meta_accesses == (
            MetaAccess(tracker.table.meta_row_of(16 * 64), 1, False),
            MetaAccess(tracker.table.meta_row_of(0), 1, True),
        )
        assert resident_lines(tracker) == list(range(1, 17))
        assert tracker.cache.evictions == 1
        assert tracker.extra_write_lines == 1

    def test_lru_promotion(self):
        tracker = cra_with_one_set()
        for line in range(16):
            tracker.on_activation(line * 64)
        assert tracker.on_activation(0) is None  # promote line 0
        tracker.on_activation(16 * 64)
        assert 0 in resident_lines(tracker)
        assert 1 not in resident_lines(tracker)  # the LRU line went

    def test_rejects_partial_sets(self):
        with pytest.raises(ValueError):
            LineMetadataCache(capacity_bytes=100, ways=16)

    def test_reset(self):
        tracker = cra_with_one_set()
        tracker.on_activation(1)
        tracker.cache.reset()
        assert resident_lines(tracker) == []
        response = tracker.on_activation(1)
        assert response is not None and response.meta_accesses


class TestCraTracker:
    def make(self, trh=100, cache_bytes=16 * 64) -> CraTracker:
        return CraTracker(GEOMETRY, trh=trh, cache_bytes=cache_bytes)

    def test_first_access_misses_and_fetches(self):
        tracker = self.make()
        response = tracker.on_activation(0)
        assert response is not None
        reads = [a for a in response.meta_accesses if not a.is_write]
        assert len(reads) == 1
        assert reads[0].row_id == tracker.table.meta_row_of(0)

    def test_cached_line_covers_64_neighbouring_rows(self):
        tracker = self.make()
        tracker.on_activation(0)
        # Row 1's counter shares row 0's line: pure cache hit, silent.
        assert tracker.on_activation(1) is None
        assert tracker.cache.hits == 1

    def test_dirty_writeback_on_conflict(self):
        tracker = self.make(cache_bytes=16 * 64)  # 16 lines, 1 set
        for line_index in range(16):
            tracker.on_activation(line_index * 64)
        response = tracker.on_activation(16 * 64)
        writes = [a for a in response.meta_accesses if a.is_write]
        assert len(writes) == 1

    def test_mitigation_at_half_trh(self):
        tracker = self.make(trh=100)
        mitigated_at = None
        for i in range(1, 60):
            response = tracker.on_activation(7)
            if response and response.mitigate_rows:
                mitigated_at = i
                break
        assert mitigated_at == 50
        assert tracker.mitigations == 1

    def test_counter_reset_after_mitigation(self):
        tracker = self.make(trh=100)
        for _ in range(50):
            tracker.on_activation(7)
        assert tracker.table.read(7) == 0

    def test_metadata_row_activations_ignored(self):
        tracker = self.make()
        meta_row = tracker.table.meta_row_of(0)
        assert tracker.on_activation(meta_row) is None

    def test_window_reset_clears_counts_and_cache(self):
        tracker = self.make(trh=100)
        for _ in range(30):
            tracker.on_activation(7)
        tracker.on_window_reset()
        assert tracker.table.read(7) == 0
        assert tracker.cache.hits + tracker.cache.misses > 0
        # The cache was emptied, so row 0's line misses again.
        assert tracker.on_activation(0).meta_accesses

    def test_sram_is_cache_plus_overhead(self):
        tracker = self.make(cache_bytes=64 * 1024)
        assert tracker.sram_bytes() == int(64 * 1024 * 1.25)

    def test_dram_reservation_positive(self):
        assert self.make().dram_reserved_bytes() > 0
