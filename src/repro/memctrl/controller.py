"""Fast engine: in-order resolution + tracker hook + mitigation.

This is the component Hydra lives in (Figure 3). Responsibilities:

- route each demand access to its bank and channel bus and resolve its
  timing (the event-driven equivalent of USIMM's scheduler);
- consult the activation tracker on **every** activation — demand,
  metadata, or victim refresh (§5.2.1 requires mitigation-induced
  activations to be counted too);
- perform the metadata traffic trackers request (RCT/CRA counter line
  reads and writebacks) — off the demand critical path, but consuming
  bank row-cycles and bus slots, which is precisely how tracking
  slowdown arises (§5.3);
- execute victim-refresh mitigations through the blast-radius policy;
- reset the tracker every tracking window (64 ms, or window/2 for
  D-CBF's filter rotation).

Construction, the tracker-feedback loop, and the reporting surface are
inherited from :class:`~repro.memctrl.base.BaseMemoryController`; this
module adds only the in-order scheduling mechanism. The queued
FR-FCFS engine lives in :mod:`repro.memctrl.queued`.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker, MetaAccess
from repro.memctrl.base import (
    BaseMemoryController,
    ControllerStats,
    EngineRunOutcome,
    drive_in_order,
)

__all__ = ["ControllerStats", "MemoryController"]


class MemoryController(BaseMemoryController):
    """Two-channel DDR4 controller with in-order request resolution."""

    engine = "fast"

    def __init__(
        self,
        geometry: DramGeometry,
        timing: DramTiming,
        tracker: Optional[ActivationTracker] = None,
        blast_radius: int = 2,
        count_mitigation_acts: bool = True,
        defer_meta_writes: bool = True,
        max_feedback_depth: int = 4,
    ) -> None:
        super().__init__(
            geometry,
            timing,
            tracker,
            blast_radius=blast_radius,
            count_mitigation_acts=count_mitigation_acts,
            max_feedback_depth=max_feedback_depth,
        )
        #: Writes sit in the write queue and drain with lower priority
        #: than reads (USIMM prioritizes reads, Table 2 text). Deferred
        #: writes cost data-bus slots but their bank occupancy overlaps
        #: idle periods, so they are modelled as bus-only traffic.
        self.defer_meta_writes = defer_meta_writes

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        """Replay a trace through the limited-MLP in-order window.

        Any :class:`~repro.workloads.streaming.TraceSource` exposing
        ``resolved_stream`` — an in-RAM
        :class:`~repro.workloads.trace.Trace`, a chunked on-disk
        trace, or an external-format reader — takes the pre-resolved
        fast loop (bank/channel indices vectorized per chunk in numpy,
        the per-request ``access`` body inlined), consuming the stream
        with running statistics so peak memory is bounded by the
        source's chunk size. Any other iterable of
        ``(gap_ns, row_id, n_lines, is_write)`` tuples falls back to
        the generic :func:`drive_in_order` path. All paths produce
        bit-identical results — the fast loop performs the exact same
        arithmetic in the exact same order regardless of how the
        stream is backed.
        """
        resolved = getattr(trace, "resolved_stream", None)
        if resolved is not None:
            stream = resolved(self._rows_per_bank, self._banks_per_channel)
            return self._run_resolved_stream(stream, mlp)
        return drive_in_order(trace, self.access, mlp)

    def _run_resolved_stream(self, stream, mlp: int) -> EngineRunOutcome:
        """The hot loop: ``drive_in_order`` + ``access`` fused.

        Everything the per-request path touches is hoisted into locals;
        per-request stats increments are batched into local counters
        and flushed once after the loop (pure integer sums, and the
        float ``total_delay_ns`` accumulates in the same order it would
        through the instance attribute, so results stay bit-identical).
        """
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        banks = self.banks
        buses = self.buses
        stats = self.stats
        window_sched = self._window
        advance_window = self._advance_window
        # The feedback fast path (tracker answers None, no follow-up
        # work) is inlined below, and so is the depth-0 work of a
        # meta-only response (metadata traffic, no mitigation, no
        # delay — nearly every CRA/NoGCT/NoRCC event); only the
        # activations that traffic causes, and responses with
        # mitigations or delay, enter the worklist machinery.
        # ``self.tracker.on_activation`` is resolved here, once per
        # run, and never rebound, so it stays valid across window
        # resets.
        on_activation = self.tracker.on_activation
        feedback = self._feedback
        followups = feedback.drive_followups
        observe_chain = feedback.observer
        rows_per_bank = self._rows_per_bank
        banks_per_channel = self._banks_per_channel
        defer_meta_writes = self.defer_meta_writes
        # Timing scalars are shared by every bank and bus (all built
        # from the same DramTiming), so they hoist out of the loop;
        # per-bank/per-bus *state* is re-read from the objects each
        # iteration because feedback work (victim refreshes, metadata
        # accesses) mutates it through the normal methods mid-loop.
        timing = self.timing
        t_refi = timing.t_refi
        t_rfc = timing.t_rfc
        t_rc = timing.t_rc
        t_rp = timing.t_rp
        t_rcd = timing.t_rcd
        t_cas = timing.t_cas
        t_burst = timing.t_burst
        next_reset = window_sched.next_reset
        window = [0.0] * mlp
        issue = 0.0
        total_latency = 0.0
        count = 0
        end_time = self.end_time
        total_delay_ns = stats.total_delay_ns
        demand_accesses = 0
        demand_line_transfers = 0
        tracker_activations = 0
        # Metadata traffic of inlined meta-only responses; flushed into
        # ``stats`` before every window reset, whose observer snapshots
        # the live counters.
        meta_accesses = 0
        meta_line_transfers = 0
        for gap_ns, row_id, local_row, bank_index, channel, n_lines, is_write in stream:
            earliest = issue + gap_ns
            slot = count % mlp
            start = window[slot]
            if start < earliest:
                start = earliest
            issue = start
            # -- access(start, row_id, n_lines, is_write), inlined --
            if start >= next_reset:
                stats.meta_accesses += meta_accesses
                stats.meta_line_transfers += meta_line_transfers
                meta_accesses = meta_line_transfers = 0
                advance_window(start)
                next_reset = window_sched.next_reset
            # -- bank.access(start, local_row, n_lines, bus, is_write),
            #    inlined (see Bank.access for the annotated original) --
            bank = banks[bank_index]
            bstats = bank.stats
            at = start if start >= 0 else 0.0
            offset = at % t_refi
            t = at + (t_rfc - offset) if offset < t_rfc else at
            if bank.open_row == local_row:
                bstats.row_buffer_hits += 1
                row_ready = bank._row_ready_at
                col_start = t if t >= row_ready else row_ready
                activated = False
                act_at = 0.0
            else:
                bstats.row_buffer_misses += 1
                next_act = bank._next_act_at
                act_at = t if t >= next_act else next_act
                if bank.open_row is not None:
                    row_ready = bank._row_ready_at
                    if row_ready > act_at:
                        act_at = row_ready
                    act_at += t_rp
                    bstats.precharges += 1
                offset = act_at % t_refi
                if offset < t_rfc:
                    act_at += t_rfc - offset
                act_window = bank._act_window
                if act_window is not None:
                    act_at = act_window.reserve(act_at)
                bank.open_row = local_row
                bank._next_act_at = act_at + t_rc
                col_start = bank._row_ready_at = act_at + t_rcd
                bstats.activations += 1
                activated = True
            first_data = col_start + t_cas
            bus = buses[channel]
            free_at = bus.free_at
            xfer_start = first_data if first_data >= free_at else free_at
            duration = n_lines * t_burst
            completion = xfer_start + duration
            bus.free_at = completion
            bus.busy_time += duration
            if is_write:
                bstats.write_lines += n_lines
            else:
                bstats.read_lines += n_lines
            # -- end of the inlined bank access --
            demand_accesses += 1
            demand_line_transfers += n_lines
            if activated:
                # -- _feedback.drive(row_id, act_at, self), inlined --
                tracker_activations += 1
                response = on_activation(row_id)
                if response is not None:
                    mitigate_rows, metas, delay_ns = response
                    if mitigate_rows or delay_ns:
                        delay = followups(response, act_at, self)
                    else:
                        # -- the depth-0 meta loop of drive_followups
                        #    with perform_meta_access inlined; the
                        #    meta rows it activates resume the walk --
                        pending = None
                        for meta in metas:
                            meta_row, meta_lines, meta_write = meta
                            meta_accesses += 1
                            meta_line_transfers += meta_lines
                            meta_bank = meta_row // rows_per_bank
                            meta_bus = buses[meta_bank // banks_per_channel]
                            if meta_write and defer_meta_writes:
                                # -- meta_bus.transfer(act_at, meta_lines)
                                if meta_lines > 0:
                                    free_at = meta_bus.free_at
                                    duration = meta_lines * t_burst
                                    meta_bus.free_at = (
                                        act_at if act_at >= free_at
                                        else free_at
                                    ) + duration
                                    meta_bus.busy_time += duration
                            elif banks[meta_bank].access(
                                act_at,
                                meta_row % rows_per_bank,
                                meta_lines,
                                meta_bus,
                                meta_write,
                            ).activated:
                                if pending is None:
                                    pending = [(meta_row, 1)]
                                else:
                                    pending.append((meta_row, 1))
                        if pending is None:
                            observe_chain(0)
                            delay = 0.0
                        else:
                            delay = followups(
                                None, act_at, self, (pending, 0, 0)
                            )
                    if delay:
                        completion += delay
                        total_delay_ns += delay
            if completion > end_time:
                end_time = completion
            # -- back in the drive_in_order window bookkeeping --
            window[slot] = completion
            total_latency += completion - start
            count += 1
        stats.demand_accesses += demand_accesses
        stats.demand_line_transfers += demand_line_transfers
        stats.tracker_activations += tracker_activations
        stats.meta_accesses += meta_accesses
        stats.meta_line_transfers += meta_line_transfers
        stats.total_delay_ns = total_delay_ns
        self.end_time = end_time
        end = max(window) if count else 0.0
        return EngineRunOutcome(
            end_time_ns=end, requests=count, total_latency_ns=total_latency
        )

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(
        self, at: float, row_id: int, n_lines: int = 1, is_write: bool = False
    ) -> float:
        """One demand access of ``n_lines`` lines; returns completion time."""
        if at >= self._window.next_reset:  # scalar form of _window.due(at)
            self._advance_window(at)
        bank_index = row_id // self._rows_per_bank
        bank = self.banks[bank_index]
        bus = self.buses[bank_index // self._banks_per_channel]
        result = bank.access(
            at, row_id % self._rows_per_bank, n_lines, bus, is_write
        )
        self.stats.demand_accesses += 1
        self.stats.demand_line_transfers += n_lines
        completion = result.completion
        if result.activated:
            delay = self._report_activation(row_id, result.act_time)
            if delay:
                completion += delay
                self.stats.total_delay_ns += delay
        if completion > self.end_time:
            self.end_time = completion
        return completion

    # FeedbackHandler hooks -------------------------------------------

    def perform_meta_access(self, meta: MetaAccess, at: float) -> bool:
        meta_bank_index = meta.row_id // self._rows_per_bank
        meta_bus = self.buses[meta_bank_index // self._banks_per_channel]
        self.stats.meta_accesses += 1
        self.stats.meta_line_transfers += meta.n_lines
        if meta.is_write and self.defer_meta_writes:
            meta_bus.transfer(at, meta.n_lines)
            return False
        meta_result = self.banks[meta_bank_index].access(
            at,
            meta.row_id % self._rows_per_bank,
            meta.n_lines,
            meta_bus,
            meta.is_write,
        )
        return meta_result.activated
