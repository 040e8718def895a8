"""Row-Count Table (RCT): per-row counters stored in the DRAM array.

The RCT holds one small counter per DRAM row, in a reserved region of
the addressable space (4 MB for the paper's 32 GB system — under
0.02% of capacity). This model keeps the counters for a bank's rows in
reserved rows *of that same bank* (16 meta-rows at the top of each
bank at full scale), so a row-group's 128 one-byte counters occupy two
adjacent 64 B lines of a single meta-row — which is what makes the
paper's group initialization cost exactly two line reads plus two line
writes.

The class also answers "which DRAM row stores row X's counter?" so the
memory controller can time metadata traffic, and "is row Y a metadata
row?" so the tracker can guard the RCT's own rows with the dedicated
RIT-ACT counters (§5.2.2).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.dram.timing import DramGeometry
from repro.interfaces import MetaAccess


class RowCountTable:
    """DRAM-resident table of per-row activation counters."""

    def __init__(self, geometry: DramGeometry, counter_bytes: int = 1) -> None:
        if counter_bytes <= 0:
            raise ValueError("counter_bytes must be positive")
        self._geometry = geometry
        self.counter_bytes = counter_bytes
        self._rows_per_bank = geometry.rows_per_bank
        self._counters_per_meta_row = geometry.row_size_bytes // counter_bytes
        if self._counters_per_meta_row == 0:
            raise ValueError("counter does not fit in a row")
        self.meta_rows_per_bank = -(-self._rows_per_bank // self._counters_per_meta_row)
        self._meta_base_local = self._rows_per_bank - self.meta_rows_per_bank
        if self._meta_base_local <= 0:
            raise ValueError("geometry too small to host the RCT")
        self._line_size = geometry.line_size_bytes
        self._counts: List[int] = [0] * geometry.total_rows
        #: meta row id -> its interned single-line (read, write) pair;
        #: filled lazily by :meth:`meta_pair`, never cleared.
        self._meta_pairs: Dict[int, Tuple[MetaAccess, MetaAccess]] = {}

    @property
    def geometry(self) -> DramGeometry:
        return self._geometry

    @property
    def meta_base_local(self) -> int:
        """First in-bank row index of the metadata reservation."""
        return self._meta_base_local

    @property
    def total_meta_rows(self) -> int:
        return self.meta_rows_per_bank * self._geometry.total_banks

    def dram_reserved_bytes(self) -> int:
        """Reserved DRAM capacity (whole meta rows)."""
        return (
            self.total_meta_rows * self._geometry.row_size_bytes
        )

    def is_meta_row(self, row_id: int) -> bool:
        """True if ``row_id`` is one of the rows storing the RCT."""
        return row_id % self._rows_per_bank >= self._meta_base_local

    def meta_row_of(self, row_id: int) -> int:
        """Global id of the DRAM row holding ``row_id``'s counter."""
        return self.meta_pair(row_id)[0].row_id

    def meta_pair(self, row_id: int) -> Tuple[MetaAccess, MetaAccess]:
        """Interned ``(read, write)`` of the line holding ``row_id``'s counter.

        Both are single-line accesses to the DRAM row storing the
        counter (the one layout computation; :meth:`meta_row_of`
        reads it back). ``MetaAccess`` is an immutable tuple, so one
        pair per meta row is built on first use and shared by every
        later request: the per-row update paths of CRA and Hydra
        return these objects instead of allocating new ones per
        event. The memo depends only on the layout, so it survives
        :meth:`reset_all` and window resets.
        """
        local = row_id % self._rows_per_bank
        meta_row = (
            row_id - local + self._meta_base_local
            + local // self._counters_per_meta_row
        )
        pair = self._meta_pairs.get(meta_row)
        if pair is None:
            pair = self._meta_pairs[meta_row] = (
                MetaAccess(meta_row, 1, False),
                MetaAccess(meta_row, 1, True),
            )
        return pair

    def read(self, row_id: int) -> int:
        return self._counts[row_id]

    def write(self, row_id: int, value: int) -> None:
        if value < 0:
            raise ValueError("counter value must be non-negative")
        self._counts[row_id] = value

    def init_group(self, first_row: int, group_size: int, value: int) -> List[MetaAccess]:
        """Set a whole row-group's counters to ``value`` (GCT overflow).

        Returns the metadata traffic this costs: n line reads plus n
        line writes on the group's meta row (n = 2 for the default
        128-row groups with 1-byte counters).
        """
        if first_row % group_size:
            raise ValueError("first_row must be group aligned")
        self._counts[first_row : first_row + group_size] = [value] * group_size
        n_lines = -(-group_size * self.counter_bytes // self._line_size)
        meta_row = self.meta_row_of(first_row)
        return [
            MetaAccess(row_id=meta_row, n_lines=n_lines, is_write=False),
            MetaAccess(row_id=meta_row, n_lines=n_lines, is_write=True),
        ]

    def reset_all(self) -> None:
        """Zero every counter, in place.

        Plain Hydra never needs this (stale counts are overwritten by
        group initialization, §4.6); the Hydra-NoGCT ablation uses it
        at window boundaries, standing in for entry versioning. The
        zero-fill reuses the existing list (slice assignment) instead
        of rebinding a fresh allocation, so references hoisted by hot
        loops survive a reset.
        """
        self._counts[:] = [0] * len(self._counts)

    def count_frequencies(self) -> Dict[int, int]:
        """How many rows currently hold each counter value.

        One pass over the table (end-of-run observability, never the
        hot path). The overwhelming majority of rows sit at zero —
        only saturated groups ever get per-row values — so the result
        is a small dict even for millions of rows.
        """
        return dict(Counter(self._counts))

    def publish_metrics(self, registry, prefix: str = "hydra_rct") -> None:
        """End-of-run table state for the observability registry.

        Publishes a Figure-6-style histogram of the per-row counter
        values left in the table (power-of-two buckets, sized so the
        run's largest count lands in a real bucket).
        """
        frequencies = self.count_frequencies()
        max_count = max(frequencies)
        bounds: List[float] = [0.0]
        edge = 1
        while edge < max_count:
            bounds.append(float(edge))
            edge *= 2
        bounds.append(float(max(edge, 1)))
        histogram = registry.histogram(
            f"{prefix}_row_counts",
            bounds=bounds,
            help_text="per-row RCT counter values at end of run"
            " (current window; Fig-6-style count distribution)",
        )
        for value, rows in sorted(frequencies.items()):
            histogram.observe_count(float(value), rows)
        registry.gauge(
            f"{prefix}_meta_rows", "DRAM rows reserved for the RCT"
        ).set(float(self.total_meta_rows))
        registry.gauge(
            f"{prefix}_nonzero_rows", "rows with a live per-row count"
        ).set(float(sum(n for v, n in frequencies.items() if v > 0)))
