"""CRA: Counter-based Row Activation tracking (Kim et al., CAL 2014).

The DRAM-based baseline: one counter per row lives in a reserved
region of memory, read and written by the memory controller with
regular 64 B line accesses, fronted by a *conventional* metadata
cache — 64 B-line granularity, address-tagged, set-associative LRU
(this line granularity, relying on spatial locality that row-level
access streams do not have, is exactly why CRA's cache misses so much;
Hydra's RCC caches single counters instead).

On every activation the controller needs the row's counter:

- metadata-cache hit: increment in place (no DRAM traffic);
- miss: read the counter line from DRAM, install it, and write back
  the evicted line (every cached line holds an incremented counter,
  so every eviction is dirty).

Mitigation (victim refresh) triggers at T_RH/2 (window-reset halving)
and resets the counter.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.core.rct import RowCountTable
from repro.dram.timing import DramGeometry
from repro.trackers.base import ActivationTracker, MetaAccess, TrackerResponse
from repro.trackers.registry import Param, TrackerContext, register_tracker


class LineMetadataCache:
    """Set-associative LRU cache of 64 B metadata lines.

    Every CRA access increments the counter it fetched, so every
    resident line is dirty and every eviction is a write-back; a set
    therefore only keeps its line ids in LRU order (oldest first). The
    lookup itself is fused into :meth:`CraTracker.on_activation`.
    """

    __slots__ = ("sets", "ways", "_sets", "hits", "misses", "evictions")

    def __init__(self, capacity_bytes: int, line_bytes: int = 64, ways: int = 16) -> None:
        lines = capacity_bytes // line_bytes
        if lines < ways or lines % ways:
            raise ValueError("capacity must hold a whole number of sets")
        self.sets = lines // ways
        self.ways = ways
        self._sets: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(self.sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity_lines(self) -> int:
        return self.sets * self.ways

    def reset(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()


class CraTracker(ActivationTracker):
    """Per-row DRAM counters + conventional metadata cache."""

    name = "cra"

    def __init__(
        self,
        geometry: DramGeometry,
        trh: int = 500,
        cache_bytes: int = 64 * 1024,
        cache_ways: int = 16,
    ) -> None:
        self.geometry = geometry
        self.trh = trh
        self.threshold = trh // 2
        counter_bytes = max(1, (self.threshold.bit_length() + 7) // 8)
        self.table = RowCountTable(geometry, counter_bytes=counter_bytes)
        self.cache = LineMetadataCache(cache_bytes, ways=cache_ways)
        self._counters_per_line = (
            geometry.line_size_bytes // counter_bytes
        )
        self.cache_bytes = cache_bytes
        self.mitigations = 0
        self.extra_read_lines = 0
        self.extra_write_lines = 0
        # Scalar copies for the per-activation path. ``reset_all`` and
        # ``LineMetadataCache.reset`` clear in place, so the hoisted
        # references stay valid across window resets.
        self._rows_per_bank = geometry.rows_per_bank
        self._meta_base_local = self.table.meta_base_local
        self._counts = self.table._counts
        self._cache_sets = self.cache._sets

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        if row_id % self._rows_per_bank >= self._meta_base_local:
            # CRA as published does not guard its own counter rows
            # (Hydra's §5.2.2 RIT-ACT has no CRA equivalent); counter-
            # row activations are simply not tracked.
            return None
        counts = self._counts
        count = counts[row_id] + 1
        mitigate: Tuple[int, ...] = ()
        if count >= self.threshold:
            self.mitigations += 1
            counts[row_id] = 0
            mitigate = (row_id,)
        else:
            counts[row_id] = count
        # The counter's 64 B line through the LRU metadata cache.
        cache = self.cache
        rows_per_line = self._counters_per_line
        line = row_id // rows_per_line
        cache_set = self._cache_sets[line % cache.sets]
        if line in cache_set:
            cache.hits += 1
            cache_set.move_to_end(line)
            if mitigate:
                return TrackerResponse(mitigate_rows=mitigate)
            return None
        # Miss: read the line, write back the LRU line it displaces.
        cache.misses += 1
        self.extra_read_lines += 1
        read = self.table.meta_pair(line * rows_per_line)[0]
        if len(cache_set) >= cache.ways:
            victim_line = cache_set.popitem(last=False)[0]
            cache.evictions += 1
            self.extra_write_lines += 1
            meta: Tuple[MetaAccess, ...] = (
                read, self.table.meta_pair(victim_line * rows_per_line)[1]
            )
        else:
            meta = (read,)
        cache_set[line] = None
        return TrackerResponse(mitigate_rows=mitigate, meta_accesses=meta)

    def on_window_reset(self) -> None:
        self.table.reset_all()
        self.cache.reset()

    def extra_stats(self) -> dict:
        """Metadata-cache behaviour (drives the Figure 2 analysis)."""
        total = self.cache.hits + self.cache.misses
        return {
            "cache_miss_rate": self.cache.misses / total if total else 0.0,
        }

    def obs_snapshot(self) -> dict:
        """Cumulative counters for the per-window series recorder.

        The metadata cache's hit/miss/eviction counters survive window
        resets (``LineMetadataCache.reset`` clears entries, not
        accounting), so the per-window cache miss rate — the Figure 2
        story — falls out of the deltas.
        """
        return {
            "tracker_mitigations": float(self.mitigations),
            "cra_cache_hits": float(self.cache.hits),
            "cra_cache_misses": float(self.cache.misses),
            "cra_cache_evictions": float(self.cache.evictions),
            "cra_extra_read_lines": float(self.extra_read_lines),
            "cra_extra_write_lines": float(self.extra_write_lines),
        }

    def publish_metrics(self, registry) -> None:
        super().publish_metrics(registry)
        for name, value in self.obs_snapshot().items():
            if name == "tracker_mitigations":
                continue
            registry.counter(name, f"CraTracker {name}").inc(int(value))
        total = self.cache.hits + self.cache.misses
        registry.gauge(
            "cra_cache_miss_rate", "whole-run metadata-cache miss rate"
        ).set(self.cache.misses / total if total else 0.0)

    def sram_bytes(self) -> int:
        """Metadata cache data + ~25% tag/valid/LRU overhead."""
        return int(self.cache_bytes * 1.25)

    def dram_reserved_bytes(self) -> int:
        return self.table.dram_reserved_bytes()


@register_tracker(
    "cra",
    summary="per-row DRAM counters behind a line-granularity cache",
    params={
        "cache_kb": Param(
            int,
            help="full-scale metadata cache size in KB (default 64,"
            " scaled with the system)",
        ),
        "cache_ways": Param(int, 16, "metadata cache associativity"),
    },
)
def _cra_from_context(
    ctx: TrackerContext,
    cache_kb: Optional[int] = None,
    cache_ways: int = 16,
) -> CraTracker:
    full_bytes = cache_kb * 1024 if cache_kb is not None else None
    return CraTracker(
        ctx.geometry,
        trh=ctx.trh,
        cache_bytes=ctx.cra_cache_bytes(full_bytes),
        cache_ways=cache_ways,
    )
