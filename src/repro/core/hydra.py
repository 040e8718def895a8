"""The Hydra hybrid tracker (the paper's core contribution, §4).

Every activation takes one of three paths (Figure 4):

1. **GCT-only** (common case, ~90.7%): the row-group's counter is
   below T_G; increment it and stop. If this increment *reaches* T_G,
   all RCT entries of the group are initialized to T_G (two line reads
   plus two line writes of metadata traffic).
2. **RCC hit** (~9.0%): the group is saturated, and the row's private
   counter is cached on-chip; increment it locally. Reaching T_H
   issues a mitigation and resets the counter.
3. **RCT access** (~0.3%): as (2) but the counter must be fetched from
   DRAM and installed in the RCC, writing back a (dirty) victim.

The rows that store the RCT itself are guarded by a dedicated SRAM
counter array (RIT-ACT, §5.2.2) so an adversary cannot hammer the
counter rows unseen.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left as _bisect_left
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.core.config import HydraConfig
from repro.core.gct import GroupCountTable
from repro.core.randomize import FeistelPermutation
from repro.core.rcc import RowCountCache
from repro.core.rct import RowCountTable
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import (
    RCC_ENTRY_BYTES,
    Param,
    TrackerContext,
    register_tracker,
)


@dataclass
class HydraStats:
    """Per-run accounting (drives Figure 6 and the power analysis)."""

    gct_only: int = 0
    rcc_hits: int = 0
    rct_accesses: int = 0
    group_inits: int = 0
    mitigations: int = 0
    meta_read_lines: int = 0
    meta_write_lines: int = 0
    rit_act_activations: int = 0
    window_resets: int = 0

    @property
    def total_updates(self) -> int:
        return self.gct_only + self.rcc_hits + self.rct_accesses

    def distribution(self) -> Dict[str, float]:
        """Fraction of activation updates satisfied at each level."""
        total = self.total_updates
        if total == 0:
            return {"gct_only": 0.0, "rcc_hit": 0.0, "rct_access": 0.0}
        return {
            "gct_only": self.gct_only / total,
            "rcc_hit": self.rcc_hits / total,
            "rct_access": self.rct_accesses / total,
        }


class HydraTracker(ActivationTracker):
    """Hybrid GCT + RCC + RCT activation tracker."""

    name = "hydra"

    def __init__(self, config: Optional[HydraConfig] = None) -> None:
        # A dataclass default argument would be one instance shared by
        # every default-constructed tracker; build a fresh one instead.
        if config is None:
            config = HydraConfig()
        self.config = config
        self.th = config.th
        self.tg = config.tg
        self._group_size = config.group_size
        self._group_mask = ~(config.group_size - 1)
        self.gct: Optional[GroupCountTable] = (
            GroupCountTable(config.gct_entries, config.tg, config.group_size)
            if config.enable_gct
            else None
        )
        self.rcc: Optional[RowCountCache] = (
            RowCountCache(config.rcc_entries, config.rcc_ways)
            if config.enable_rcc
            else None
        )
        counter_bytes = max(1, (self.th.bit_length() + 7) // 8)
        self.rct = RowCountTable(config.geometry, counter_bytes=counter_bytes)
        self._permutation: Optional[FeistelPermutation] = (
            FeistelPermutation(config.geometry.total_rows, config.mapping_seed)
            if config.randomize_mapping
            else None
        )
        self._rit_act: Dict[int, int] = {}
        self.stats = HydraStats()
        # Scalar copies for the per-activation path: the meta-row guard
        # runs on every single activation, so it reads two ints off
        # ``self`` instead of calling into the RCT. Likewise the GCT's
        # counter array and shift are hoisted here so the ~90% common
        # case is a direct array probe; ``GroupCountTable.reset`` keeps
        # the backing array's identity, so the reference stays valid
        # across window resets.
        self._rows_per_bank = config.geometry.rows_per_bank
        self._meta_base_local = self.rct.meta_base_local
        self._gct_counts = self.gct._counts if self.gct is not None else None
        self._gct_shift = (
            self.gct._group_shift if self.gct is not None else 0
        )
        if not config.enable_gct:
            self.name = "hydra-nogct"
        elif not config.enable_rcc:
            self.name = "hydra-norcc"

    # ------------------------------------------------------------------
    # ActivationTracker interface
    # ------------------------------------------------------------------

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        # Inlined self.rct.is_meta_row(row_id) — this guard runs on
        # every activation.
        if row_id % self._rows_per_bank >= self._meta_base_local:
            return self._count_meta_row_activation(row_id)
        # Footnote 4: with randomized mapping, all internal indexing
        # (GCT entry, RCC tag, RCT slot) uses the permuted id, while
        # mitigations still name the physical row in hand.
        permutation = self._permutation
        key = permutation.permute(row_id) if permutation is not None else row_id
        gct = self.gct
        if gct is not None:
            # ``gct.update(key)`` inlined: the below-T_G increment is
            # the ~90% common case of the whole tracker, worth a direct
            # array probe instead of a method call.
            counts = self._gct_counts
            group = key >> self._gct_shift
            value = counts[group]
            tg = self.tg
            if value < tg:
                value += 1
                counts[group] = value
                if value < tg:
                    self.stats.gct_only += 1
                    return None
                # This update saturated the group: switch it to
                # per-row tracking by initializing its RCT entries.
                gct.saturated_groups += 1
                stats = self.stats
                stats.gct_only += 1
                stats.group_inits += 1
                first_row = key & self._group_mask
                read, write = self.rct.init_group(
                    first_row, self._group_size, tg
                )
                stats.meta_read_lines += read.n_lines
                stats.meta_write_lines += write.n_lines
                return TrackerResponse(meta_accesses=(read, write))
            # value >= T_G: group saturated on an earlier update.
        return self._per_row_update(key, row_id)

    def on_window_reset(self) -> None:
        """Reset SRAM structures every tracking window (§4.6)."""
        if self.gct is not None:
            self.gct.reset()
        else:
            # Without a GCT there is no lazy re-initialization path, so
            # the per-row state itself must be reset (models entry
            # versioning; costless in time, like the paper's design).
            self.rct.reset_all()
        if self.rcc is not None:
            self.rcc.reset()
        if self._permutation is not None:
            # Footnote 4: change the cipher key every window so group
            # membership cannot be learned across windows.
            self._permutation = self._permutation.rekeyed(
                self.config.mapping_seed + self.stats.window_resets + 1
            )
        self._rit_act.clear()
        self.stats.window_resets += 1

    def sram_bytes(self) -> int:
        total = 0
        if self.gct is not None:
            total += self.gct.sram_bytes()
        if self.rcc is not None:
            total += self.rcc.sram_bytes()
        total += self.rct.total_meta_rows  # 1-byte RIT-ACT counters
        return total

    def dram_reserved_bytes(self) -> int:
        return self.rct.dram_reserved_bytes()

    @property
    def mitigations(self) -> int:
        return self.stats.mitigations

    def extra_stats(self) -> Dict[str, object]:
        """Figure 6's distribution plus metadata-path counters."""
        return {
            "distribution": self.stats.distribution(),
            "group_inits": self.stats.group_inits,
            "rit_act_activations": self.stats.rit_act_activations,
        }

    def obs_snapshot(self) -> Dict[str, float]:
        """Cumulative counters for the per-window series recorder.

        ``HydraStats`` survives window resets (only the SRAM
        structures clear), so every field differences cleanly into
        per-window deltas: the three update levels reproduce Figure 6
        window by window, and ``rcc_hits`` vs ``rct_accesses`` gives
        the per-window RCC hit rate.
        """
        stats = self.stats
        return {
            "tracker_mitigations": float(stats.mitigations),
            "hydra_gct_only": float(stats.gct_only),
            "hydra_rcc_hits": float(stats.rcc_hits),
            "hydra_rct_accesses": float(stats.rct_accesses),
            "hydra_group_inits": float(stats.group_inits),
            "hydra_meta_read_lines": float(stats.meta_read_lines),
            "hydra_meta_write_lines": float(stats.meta_write_lines),
            "hydra_rit_act_activations": float(stats.rit_act_activations),
        }

    def publish_metrics(self, registry) -> None:
        """Publish tracker totals plus each structure's own metrics."""
        super().publish_metrics(registry)
        for name, value in self.obs_snapshot().items():
            if name == "tracker_mitigations":
                continue  # already published by the base class
            registry.counter(name, f"HydraStats.{name}").inc(int(value))
        if self.gct is not None:
            self.gct.publish_metrics(registry)
        if self.rcc is not None:
            self.rcc.publish_metrics(registry)
        self.rct.publish_metrics(registry)

    # ------------------------------------------------------------------
    # Batch hook (engine=vector)
    # ------------------------------------------------------------------

    def apply_batch(self, rows, counts=None, commit: bool = True):
        """Vectorized GCT/RCC updates; everything else escapes.

        Two activation classes are order-independent and commit as a
        batch (see :meth:`ActivationTracker.apply_batch` for the
        contract):

        - **GCT-only increments** for groups that stay below T_G even
          after absorbing the whole batch (integer adds commute);
        - **RCC-resident increments** for rows of saturated groups
          whose counter stays below T_H (each is ``count += n`` plus
          an SRRIP promotion to RRPV 0 — the same final state scalar
          replay produces, since nothing else touches the entry).

        Escapes (mask ``True``): RIT-ACT meta rows, groups the batch
        would saturate (the GCT→RCT spill emits metadata traffic),
        RCC misses (RCT fetch + install + possible writeback), and
        resident counters the batch could push to T_H (mitigation).
        The ablation/randomized variants return ``None``: without the
        GCT every update is metadata traffic, and footnote-4 mapping
        permutes per activation — nothing worth batching.
        """
        if (
            self.gct is None
            or self.rcc is None
            or self._permutation is not None
            or not isinstance(self.gct._counts, array)
        ):
            return None
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.size
        mask = np.zeros(n, dtype=bool)
        if n == 0:
            return mask
        meta_m = rows % self._rows_per_bank >= self._meta_base_local
        groups = rows >> self._gct_shift
        gview = self._gct_view()
        ug, inv = np.unique(groups, return_inverse=True)
        if counts is None:
            cnt = np.bincount(inv, minlength=len(ug))
        else:
            cnt = np.bincount(
                inv, weights=np.asarray(counts, dtype=np.float64)
            ).astype(np.int64)
        base_u = gview[ug]
        tg = self.tg
        sat_u = base_u >= tg
        # Conservative: meta-row activations never touch the GCT, but
        # counting them toward the group total only widens the danger
        # set (extra escapes, never a missed one).
        danger_u = ~sat_u & (base_u + cnt >= tg)
        sat = sat_u[inv]
        mask = meta_m | (danger_u[inv] & ~meta_m)
        # Saturated groups: per-row RCC residency / threshold check.
        rcc = self.rcc
        sets = rcc.sets
        data = rcc._data
        th = self.th
        resident: dict = {}
        per_row: dict = {}
        sat_idx = np.nonzero(sat & ~meta_m)[0]
        if sat_idx.size:
            srows = rows[sat_idx].tolist()
            if counts is None:
                for row in srows:
                    per_row[row] = per_row.get(row, 0) + 1
            else:
                for row, add in zip(srows, counts[sat_idx].tolist()):
                    per_row[row] = per_row.get(row, 0) + int(add)
            for row in per_row:
                resident[row] = data[row % sets].get(row)
            flag = []
            for i, row in zip(sat_idx.tolist(), srows):
                entry = resident[row]
                if entry is None or entry[0] + per_row[row] >= th:
                    flag.append(i)
            if flag:
                mask[flag] = True
        if not commit:
            return mask
        if mask.any():
            return mask
        safe_u = ~sat_u  # all-False mask: no meta rows, no danger groups
        n_gct = int(cnt[safe_u].sum())
        if n_gct:
            gview[ug[safe_u]] += cnt[safe_u]
            self.stats.gct_only += n_gct
        n_rcc = 0
        for row, add in per_row.items():
            entry = resident[row]
            entry[0] += add
            entry[1] = 0  # SRRIP promotion, as increment_if_present does
            n_rcc += add
        if n_rcc:
            rcc.hits += n_rcc
            self.stats.rcc_hits += n_rcc
        return mask

    def plan_batch(self, rows):
        """Slab plan for ``engine=vector`` (specialized ``apply_batch``).

        Precomputes per-slab static structure once — group ids, RIT-ACT
        meta positions, and each position's running occurrence index
        within its group — so ``classify``/``commit`` segments cost a
        handful of array ops on the segment instead of re-deriving
        ``np.unique`` over the window every call. Classification is
        exact up to row-buffer hits (counted as potential increments,
        which only moves an escape earlier — the scalar replay then
        resolves it): a group escapes at the precise position where its
        live counter plus the occurrences since the walk frontier
        reaches T_G, and a saturated row escapes at the occurrence that
        would miss the RCC or reach T_H. Gated exactly like
        :meth:`apply_batch`.
        """
        if (
            self.gct is None
            or self.rcc is None
            or self._permutation is not None
            or not isinstance(self.gct._counts, array)
        ):
            return None
        return _HydraBatchPlan(self, np.asarray(rows, dtype=np.int64))

    def _gct_view(self) -> np.ndarray:
        """Writable int64 view of the GCT's backing array.

        The buffer is ``array('Q')`` (uint64); reinterpreting as int64
        is bit-exact because group counters stay far below 2**63. The
        signed view lets the batch paths index and compare without the
        ``astype`` copy every segment. ``GroupCountTable.reset``
        preserves the buffer's identity, so the view stays valid
        across window resets.
        """
        view = getattr(self, "_gct_np", None)
        if view is None:
            view = np.frombuffer(self.gct._counts, dtype=np.int64)
            self._gct_np = view
        return view

    # ------------------------------------------------------------------
    # Internal paths
    # ------------------------------------------------------------------

    def _per_row_update(
        self, key: int, physical_row: int
    ) -> Optional[TrackerResponse]:
        """Per-row tracking: ``key`` indexes the structures,
        ``physical_row`` is what a mitigation must refresh around
        (they differ only under randomized mapping)."""
        rcc = self.rcc
        if rcc is None:
            return self._rct_read_modify_write(key, physical_row)
        # Fused lookup + increment: one dict probe on the ~9% hit path
        # (equivalent to lookup(); write(count + 1) — see RowCountCache).
        count = rcc.increment_if_present(key)
        if count is not None:
            self.stats.rcc_hits += 1
            if count >= self.th:
                rcc.write(key, 0)
                self.stats.mitigations += 1
                return TrackerResponse(mitigate_rows=(physical_row,))
            return None
        # RCC miss: fetch the counter line from the RCT in DRAM. The
        # RCT's counter list and interned meta pairs replace the
        # read/meta_row_of/write calls and per-event MetaAccess builds.
        stats = self.stats
        stats.rct_accesses += 1
        rct = self.rct
        counts = rct._counts
        count = counts[key] + 1
        mitigate = count >= self.th
        # install(key, value) followed by write(key, count) in one step:
        # the key is not resident (the probe above missed), so the
        # install cannot take its re-install branch.
        victim = rcc.install(key, 0 if mitigate else count)
        read = rct.meta_pair(key)[0]
        if victim is None:
            stats.meta_read_lines += 1
            meta = (read,)
        else:
            victim_key, victim_count = victim
            counts[victim_key] = victim_count
            meta = (read, *rct.meta_pair(victim_key))
            stats.meta_read_lines += 2
            stats.meta_write_lines += 1
        if mitigate:
            stats.mitigations += 1
            return TrackerResponse(
                mitigate_rows=(physical_row,), meta_accesses=meta
            )
        return TrackerResponse(meta_accesses=meta)

    def _rct_read_modify_write(
        self, key: int, physical_row: int
    ) -> TrackerResponse:
        """Hydra-NoRCC: every per-row update is a DRAM RMW."""
        stats = self.stats
        stats.rct_accesses += 1
        stats.meta_read_lines += 1
        stats.meta_write_lines += 1
        rct = self.rct
        meta = rct.meta_pair(key)
        counts = rct._counts
        value = counts[key] + 1
        if value >= self.th:
            counts[key] = 0
            stats.mitigations += 1
            return TrackerResponse(
                mitigate_rows=(physical_row,), meta_accesses=meta
            )
        counts[key] = value
        return TrackerResponse(meta_accesses=meta)

    def _count_meta_row_activation(self, row_id: int) -> Optional[TrackerResponse]:
        """RIT-ACT: SRAM counters guarding the RCT's own DRAM rows."""
        self.stats.rit_act_activations += 1
        count = self._rit_act.get(row_id, 0) + 1
        if count >= self.th:
            self._rit_act[row_id] = 0
            self.stats.mitigations += 1
            return TrackerResponse(mitigate_rows=(row_id,))
        self._rit_act[row_id] = count
        return None


class _HydraBatchPlan:
    """Per-slab batch plan backing :meth:`HydraTracker.plan_batch`.

    Static per slab: ``_groups`` (GCT index per position), ``_meta_idx``
    (RIT-ACT guarded positions, always escapes), and ``_occ`` — the
    1-based occurrence index of each position within its group, so the
    number of activations a group absorbs between the walk frontier and
    position ``p`` is ``occ[p] - consumed[group]``. ``consumed`` tracks,
    per group, the occurrence index last applied to the tracker; it is
    advanced by ``commit`` and lazily repaired in ``classify`` for
    positions the engine replayed scalarly (escapes, bind drains), so
    the crossing test stays exact rather than drifting conservative.
    """

    __slots__ = (
        "_tracker",
        "_rows",
        "_groups",
        "_occ",
        "_consumed",
        "_consumed_a",
        "_meta_idx",
        "_done",
        "_ana",
        "_groups_l",
        "_occ_l",
        "_rows_l",
    )

    #: Classification scan blocks, in requests.  ``classify`` scans
    #: its window block by block, stopping at the first escape: the
    #: median escape distance is a few dozen requests, so gathering
    #: the whole window up front would re-gather every element many
    #: times over as escapes restart classification just past
    #: themselves.  The block grows geometrically from ``BLOCK``
    #: (sized for the common short escape) up to ``BLOCK_MAX`` so
    #: escape-free stretches still classify in a handful of array
    #: ops, and always within one *call* (the scan continues across
    #: blocks), so no extra segment commits are introduced.
    BLOCK = 96
    BLOCK_MAX = 384

    def __init__(self, tracker: "HydraTracker", rows: np.ndarray) -> None:
        self._tracker = tracker
        self._rows = rows
        n = rows.size
        groups = rows >> tracker._gct_shift
        self._groups = groups
        meta_m = rows % tracker._rows_per_bank >= tracker._meta_base_local
        self._meta_idx = np.nonzero(meta_m)[0].tolist()
        if n:
            order = np.argsort(groups, kind="stable")
            sg = groups[order]
            idx = np.arange(n, dtype=np.int64)
            run_start = np.empty(n, dtype=bool)
            run_start[0] = True
            run_start[1:] = sg[1:] != sg[:-1]
            first = np.maximum.accumulate(np.where(run_start, idx, 0))
            occ = np.empty(n, dtype=np.int64)
            occ[order] = idx - first + 1
        else:
            occ = np.empty(0, dtype=np.int64)
        self._occ = occ
        # Stdlib-array backing with a numpy view on top: the vector
        # paths scatter/gather through the view, the small-segment
        # scalar path in ``commit`` indexes the array directly (a
        # stdlib ``array`` scalar access skips the numpy boxing cost).
        self._consumed_a = array(
            "q", bytes(8 * tracker._gct_view().size)
        )
        self._consumed = np.frombuffer(self._consumed_a, dtype=np.int64)
        self._done = 0
        self._ana = None
        self._groups_l = None  # lazy tolist caches for the scalar path
        self._occ_l = None
        self._rows_l = None

    def classify(self, lo: int, hi: int):
        """First escape in the checked prefix → ``(index | -1, checked)``."""
        groups = self._groups
        occ = self._occ
        consumed = self._consumed
        done = self._done
        if lo > done:
            # Positions in [done, lo) were applied scalarly (escape
            # replays, drains): fold them into the frontier so their
            # occurrences are not double-counted as still pending.
            consumed[groups[done:lo]] = occ[done:lo]
            self._done = lo
        first_meta = -1
        mi = self._meta_idx
        if mi:
            k = _bisect_left(mi, lo)
            if k < len(mi) and mi[k] < hi:
                first_meta = mi[k]
        hi_lim = first_meta if first_meta >= 0 else hi
        tracker = self._tracker
        gview = tracker._gct_view()
        tg = tracker.tg
        rows = self._rows
        rcc = tracker.rcc
        data = rcc._data
        sets = rcc.sets
        th = tracker.th
        # The saturation mask of the first block is cached: commit of
        # [lo, e) follows immediately with no tracker mutation in
        # between, so it can reuse it instead of re-gathering the GCT
        # (commit re-gathers itself on the rare multi-block segment).
        self._ana = None
        per_row: dict = {}
        blo = lo
        blk = self.BLOCK
        blk_max = self.BLOCK_MAX
        while blo < hi_lim:
            bhi = blo + blk
            if blk < blk_max:
                blk *= 4
            if bhi > hi_lim:
                bhi = hi_lim
            seg_g = groups[blo:bhi]
            base = gview[seg_g]
            pending = occ[blo:bhi] - consumed[seg_g]
            sat = base >= tg
            cross = ~sat & (base + pending >= tg)
            cnz = cross.nonzero()[0]
            esc_cross = blo + int(cnz[0]) if cnz.size else -1
            esc_rcc = -1
            snz = sat.nonzero()[0]
            if snz.size:
                if esc_cross >= 0:
                    snz = snz[: int(snz.searchsorted(esc_cross - blo))]
                for rel, row in zip(
                    snz.tolist(), rows[blo + snz].tolist()
                ):
                    state = per_row.get(row)
                    if state is None:
                        entry = data[row % sets].get(row)
                        if entry is None:  # RCC miss: RCT traffic
                            esc_rcc = blo + rel
                            break
                        state = [entry[0], 0]
                        per_row[row] = state
                    state[1] += 1
                    if state[0] + state[1] >= th:  # would mitigate
                        esc_rcc = blo + rel
                        break
            if blo == lo:
                self._ana = (lo, bhi, sat)
            if esc_cross >= 0 or esc_rcc >= 0:
                if esc_cross < 0 or (0 <= esc_rcc < esc_cross):
                    return esc_rcc, hi
                return esc_cross, hi
            blo = bhi
        return first_meta, hi

    def commit(self, lo: int, hi: int, skip) -> None:
        """Apply [lo, hi) minus the ``skip`` positions (row hits)."""
        tracker0 = self._tracker
        if hi - lo <= 48 and isinstance(tracker0.gct._counts, array):
            # Scalar path for short segments (the common case: the
            # median committed segment is a few dozen requests, where
            # numpy dispatch overhead dominates). Counts are read and
            # bumped in order, which matches the vector path's
            # snapshot-then-bincount semantics because ``classify``
            # guarantees no group *crosses* T_G inside a committed
            # segment — a group is either saturated throughout or
            # stays strictly below T_G even after every increment.
            g_l = self._groups_l
            if g_l is None:
                g_l = self._groups_l = self._groups.tolist()
                self._occ_l = self._occ.tolist()
                self._rows_l = self._rows.tolist()
            occ_l = self._occ_l
            rows_l = self._rows_l
            ca = self._consumed_a
            counts_a = tracker0.gct._counts
            tg = tracker0.tg
            skip_s = set(skip) if skip else ()
            per_row = None
            n_sat = 0
            n_gct = 0
            for j in range(lo, hi):
                g = g_l[j]
                ca[g] = occ_l[j]
                if j in skip_s:
                    continue
                cval = counts_a[g]
                if cval >= tg:
                    row = rows_l[j]
                    if per_row is None:
                        per_row = {}
                    per_row[row] = per_row.get(row, 0) + 1
                    n_sat += 1
                else:
                    counts_a[g] = cval + 1
                    n_gct += 1
            self._done = hi
            if n_sat:
                rcc = tracker0.rcc
                data = rcc._data
                sets = rcc.sets
                for row, add in per_row.items():
                    entry = data[row % sets][row]
                    entry[0] += add
                    entry[1] = 0  # SRRIP promotion, as scalar hits do
                rcc.hits += n_sat
                tracker0.stats.rcc_hits += n_sat
            if n_gct:
                tracker0.stats.gct_only += n_gct
            return
        groups = self._groups
        seg_g = groups[lo:hi]
        self._consumed[seg_g] = self._occ[lo:hi]
        self._done = hi
        idx = None
        if skip:
            keep = np.ones(hi - lo, dtype=bool)
            keep[np.asarray(skip, dtype=np.int64) - lo] = False
            seg_g = seg_g[keep]
            idx = np.nonzero(keep)[0] + lo
        n = seg_g.size
        if not n:
            return
        tracker = self._tracker
        gview = tracker._gct_view()
        ana = self._ana
        if ana is not None and ana[0] == lo and ana[1] >= hi:
            sat = ana[2][: hi - lo]
            if idx is not None:
                sat = sat[keep]
        else:
            sat = gview[seg_g] >= tracker.tg
        n_sat = int(np.count_nonzero(sat))
        if n_sat:
            sat_pos = (
                idx[sat] if idx is not None else np.nonzero(sat)[0] + lo
            )
            per_row: dict = {}
            for row in self._rows[sat_pos].tolist():
                per_row[row] = per_row.get(row, 0) + 1
            rcc = tracker.rcc
            data = rcc._data
            sets = rcc.sets
            for row, add in per_row.items():
                entry = data[row % sets][row]
                entry[0] += add
                entry[1] = 0  # SRRIP promotion, as scalar hits do
            rcc.hits += n_sat
            tracker.stats.rcc_hits += n_sat
        if n_sat < n:
            gg = seg_g[~sat] if n_sat else seg_g
            gmin = int(gg.min())
            counts = np.bincount(gg - gmin)
            gview[gmin : gmin + counts.size] += counts
            tracker.stats.gct_only += n - n_sat


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------

_HYDRA_PARAMS = {
    "gct_entries": Param(
        int, help="full-scale GCT entries (default 32768 x structure scale)"
    ),
    "rcc_entries": Param(
        int, help="full-scale RCC entries (default 8192 x structure scale)"
    ),
    "rcc_kb": Param(
        int,
        help="full-scale RCC size in KB (3 B/entry, Table 4; alternative"
        " to rcc_entries)",
    ),
    "rcc_ways": Param(int, 16, "RCC associativity"),
    "tg_fraction": Param(float, 0.80, "T_G as a fraction of T_H"),
    "enable_gct": Param(bool, True, "disable for the Hydra-NoGCT ablation"),
    "enable_rcc": Param(bool, True, "disable for the Hydra-NoRCC ablation"),
    "randomize_mapping": Param(
        bool, False, "footnote-4 keyed row-address randomization"
    ),
}


def _hydra_from_context(
    ctx: TrackerContext,
    gct_entries: Optional[int] = None,
    rcc_entries: Optional[int] = None,
    rcc_kb: Optional[int] = None,
    rcc_ways: Optional[int] = None,
    tg_fraction: Optional[float] = None,
    enable_gct: bool = True,
    enable_rcc: bool = True,
    randomize_mapping: bool = False,
) -> HydraTracker:
    """Build a Hydra instance from context + full-scale overrides."""
    if rcc_kb is not None:
        if rcc_entries is not None:
            raise ValueError("give rcc_entries or rcc_kb, not both")
        ways = rcc_ways if rcc_ways is not None else ctx.rcc_ways
        entries = (rcc_kb * 1024 // RCC_ENTRY_BYTES) // ways * ways
        rcc_entries = max(ways, entries)
    overrides: Dict[str, object] = {}
    if gct_entries is not None:
        overrides["gct_entries_full"] = gct_entries
    if rcc_entries is not None:
        overrides["rcc_entries_full"] = rcc_entries
    if rcc_ways is not None:
        overrides["rcc_ways"] = rcc_ways
    if tg_fraction is not None:
        overrides["tg_fraction"] = tg_fraction
    if overrides:
        ctx = replace(ctx, **overrides)
    return HydraTracker(
        ctx.hydra_config(
            enable_gct=enable_gct,
            enable_rcc=enable_rcc,
            randomize_mapping=randomize_mapping,
        )
    )


register_tracker(
    "hydra",
    summary="hybrid GCT + RCC + RCT tracking (this paper)",
    params=_HYDRA_PARAMS,
)(_hydra_from_context)


@register_tracker(
    "hydra-nogct", summary="Figure-8 ablation: per-row tracking only"
)
def _hydra_nogct_from_context(ctx: TrackerContext) -> HydraTracker:
    return _hydra_from_context(ctx, enable_gct=False)


@register_tracker(
    "hydra-norcc", summary="Figure-8 ablation: no row-count cache"
)
def _hydra_norcc_from_context(ctx: TrackerContext) -> HydraTracker:
    return _hydra_from_context(ctx, enable_rcc=False)


@register_tracker(
    "hydra-randomized", summary="Hydra with footnote-4 randomized mapping"
)
def _hydra_randomized_from_context(ctx: TrackerContext) -> HydraTracker:
    tracker = _hydra_from_context(ctx, randomize_mapping=True)
    tracker.name = "hydra-randomized"
    return tracker
