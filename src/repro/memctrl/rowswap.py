"""Randomized Row-Swap (RRS) mitigation — the paper's §8 extension.

Hydra "can also be used with other mitigating actions, such as row
migration [26]. Exploring such extensions is a part of our future
work." This module is that exploration: instead of refreshing an
aggressor's neighbours, the controller *relocates* the aggressor — it
swaps the hot logical row with a randomly chosen physical row
(Saileshwar et al., ASPLOS 2022), breaking the spatial correlation
between aggressor and victim before the hammer count can matter.

Pieces:

- :class:`RowIndirectionTable` — the logical->physical bijection the
  controller consults on every access (only swapped rows are stored;
  identity otherwise).
- :class:`RowSwapController` — a :class:`MemoryController` whose
  mitigation action is a swap: two full-row reads plus two full-row
  writes of data movement (charged to banks and bus), then the
  indirection update. Tracking still observes *physical* activations,
  so post-swap hammering of the same logical row accumulates on a
  fresh physical counter while the old location cools off.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker
from repro.memctrl.base import EngineRunOutcome, drive_in_order
from repro.memctrl.controller import MemoryController


class RowIndirectionTable:
    """Sparse logical->physical row mapping (identity by default)."""

    def __init__(self, total_rows: int) -> None:
        if total_rows <= 0:
            raise ValueError("total_rows must be positive")
        self.total_rows = total_rows
        self._forward: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}
        self.swaps_performed = 0

    def physical_of(self, logical: int) -> int:
        return self._forward.get(logical, logical)

    def logical_of(self, physical: int) -> int:
        return self._reverse.get(physical, physical)

    def swap(self, physical_a: int, physical_b: int) -> None:
        """Exchange the contents (logical identities) of two rows."""
        if not (
            0 <= physical_a < self.total_rows
            and 0 <= physical_b < self.total_rows
        ):
            raise ValueError("physical rows out of range")
        if physical_a == physical_b:
            return
        logical_a = self.logical_of(physical_a)
        logical_b = self.logical_of(physical_b)
        # logical_a now lives at physical_b, logical_b at physical_a.
        for logical, physical in (
            (logical_a, physical_b),
            (logical_b, physical_a),
        ):
            if logical == physical:
                self._forward.pop(logical, None)
                self._reverse.pop(physical, None)
            else:
                self._forward[logical] = physical
                self._reverse[physical] = logical
        self.swaps_performed += 1

    def remapped_rows(self) -> int:
        return len(self._forward)

    def verify_bijection(self) -> bool:
        """Consistency check used by property tests."""
        for logical, physical in self._forward.items():
            if self._reverse.get(physical) != logical:
                return False
        return len(self._forward) == len(self._reverse)


class RowSwapController(MemoryController):
    """Memory controller whose mitigation action is a random row swap.

    The tracker interface is unchanged: when the tracker asks to
    mitigate a (physical) aggressor, the controller swaps it with a
    uniformly random partner row in the same bank (cross-bank swaps
    would change channel mappings), paying the data-movement cost.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        timing: DramTiming,
        tracker: Optional[ActivationTracker] = None,
        seed: int = 0x525253,
        **kwargs,
    ) -> None:
        super().__init__(geometry, timing, tracker, **kwargs)
        self.indirection = RowIndirectionTable(geometry.total_rows)
        self._rng = random.Random(seed)
        self._swap_lines = geometry.lines_per_row
        self.swap_data_lines = 0

    # The demand path translates logical -> physical before timing.
    def access(
        self, at: float, row_id: int, n_lines: int = 1, is_write: bool = False
    ) -> float:
        physical = self.indirection.physical_of(row_id)
        return super().access(at, physical, n_lines, is_write)

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        """Replay a trace through :meth:`access`.

        The inherited fused loop inlines the parent's ``access`` and
        activation reporting, so it would bypass both the
        logical->physical translation and the swap mitigation.
        """
        return drive_in_order(trace, self.access, mlp)

    # Mitigation: swap instead of victim refresh.
    def _report_activation(self, row_id: int, at: float) -> float:
        delay = 0.0
        pending = deque(((row_id, 0),))
        while pending:
            row, depth = pending.popleft()
            self.stats.tracker_activations += 1
            response = self.tracker.on_activation(row)
            if response is None:
                continue
            delay += response.delay_ns
            for meta in response.meta_accesses:
                activated = self.perform_meta_access(meta, at)
                if activated and depth < self.max_feedback_depth:
                    pending.append((meta.row_id, depth + 1))
            for aggressor in response.mitigate_rows:
                partner = self._pick_partner(aggressor)
                self._perform_swap(aggressor, partner, at)
                self.stats.victim_refreshes += 2  # two rows disturbed
                if self.count_mitigation_acts and depth < self.max_feedback_depth:
                    pending.append((aggressor, depth + 1))
                    pending.append((partner, depth + 1))
        return delay

    def _pick_partner(self, aggressor: int) -> int:
        bank_base = aggressor - aggressor % self._rows_per_bank
        while True:
            candidate = bank_base + self._rng.randrange(self._rows_per_bank)
            if candidate != aggressor:
                return candidate

    def _perform_swap(self, physical_a: int, physical_b: int, at: float) -> None:
        """Move both rows' data: read + write each (full-row transfers)."""
        bus = self.buses[
            (physical_a // self._rows_per_bank) // self._banks_per_channel
        ]
        for row in (physical_a, physical_b):
            bank = self.banks[row // self._rows_per_bank]
            bank.access(at, row % self._rows_per_bank, self._swap_lines, bus)
            bank.access(
                at, row % self._rows_per_bank, self._swap_lines, bus, True
            )
            self.swap_data_lines += 2 * self._swap_lines
        self.indirection.swap(physical_a, physical_b)
