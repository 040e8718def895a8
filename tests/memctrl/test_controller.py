"""Tests for the memory controller and its tracker feedback loop."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import HydraConfig
from repro.core.hydra import HydraTracker
from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker, MetaAccess, TrackerResponse
from repro.memctrl.base import drive_in_order
from repro.memctrl.controller import MemoryController
from repro.obs import observe_controller
from repro.sim.config import SystemConfig
from repro.sim.simulator import make_tracker, trace_for_workload
from repro.trackers.ocpr import OcprTracker
from repro.workloads.trace import Trace

GEOMETRY = DramGeometry(
    channels=2,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)  # 1 ms window


class RecordingTracker(ActivationTracker):
    """Scriptable tracker for controller-behaviour tests."""

    name = "recording"

    def __init__(self, script=None):
        self.seen = []
        self.resets = 0
        self.script = script or {}

    def on_activation(self, row_id):
        self.seen.append(row_id)
        return self.script.get(len(self.seen) - 1)

    def on_window_reset(self):
        self.resets += 1

    def sram_bytes(self):
        return 0


def make_controller(tracker=None, **kwargs) -> MemoryController:
    return MemoryController(GEOMETRY, TIMING, tracker, **kwargs)


class TestDemandPath:
    def test_access_returns_increasing_completions(self):
        mc = make_controller()
        t1 = mc.access(0.0, row_id=1)
        t2 = mc.access(t1, row_id=2)
        assert t2 > t1

    def test_activations_reported_to_tracker(self):
        tracker = RecordingTracker()
        mc = make_controller(tracker)
        mc.access(0.0, row_id=5)
        mc.access(10_000.0, row_id=5)  # row hit: no ACT, not reported
        mc.access(20_000.0, row_id=6)
        assert tracker.seen == [5, 6]

    def test_banks_operate_in_parallel(self):
        mc = make_controller()
        t_same = max(
            mc.access(0.0, row_id=1), mc.access(0.0, row_id=2)
        )
        mc2 = make_controller()
        t_diff = max(
            mc2.access(0.0, row_id=1),
            mc2.access(0.0, row_id=1024 + 1),  # other bank
        )
        assert t_diff < t_same

    def test_end_time_tracks_max_completion(self):
        mc = make_controller()
        done = mc.access(0.0, row_id=1)
        assert mc.end_time == done


class TestTrackerFeedback:
    def test_meta_read_performed_on_bank(self):
        script = {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, False),))}
        mc = make_controller(RecordingTracker(script))
        mc.access(0.0, row_id=1)
        assert mc.stats.meta_accesses == 1
        assert mc.stats.meta_line_transfers == 1

    def test_meta_activation_fed_back(self):
        """An ACT caused by metadata must itself be tracked (§5.2.2)."""
        tracker = RecordingTracker(
            {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, False),))}
        )
        mc = make_controller(tracker)
        mc.access(0.0, row_id=1)
        assert tracker.seen == [1, 512]

    def test_deferred_meta_write_skips_bank(self):
        tracker = RecordingTracker(
            {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, True),))}
        )
        mc = make_controller(tracker, defer_meta_writes=True)
        mc.access(0.0, row_id=1)
        assert tracker.seen == [1]  # no ACT reported for the write
        assert mc.stats.meta_accesses == 1

    def test_undeferred_meta_write_hits_bank(self):
        tracker = RecordingTracker(
            {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, True),))}
        )
        mc = make_controller(tracker, defer_meta_writes=False)
        mc.access(0.0, row_id=1)
        assert tracker.seen == [1, 512]

    def test_mitigation_refreshes_blast_radius_victims(self):
        tracker = RecordingTracker({0: TrackerResponse(mitigate_rows=(100,))})
        mc = make_controller(tracker, blast_radius=2)
        mc.access(0.0, row_id=100)
        assert mc.stats.victim_refreshes == 4
        # Victim activations are fed back into tracking (§5.2.1).
        assert set(tracker.seen) == {100, 98, 99, 101, 102}

    def test_mitigation_feedback_can_be_disabled(self):
        tracker = RecordingTracker({0: TrackerResponse(mitigate_rows=(100,))})
        mc = make_controller(tracker, count_mitigation_acts=False)
        mc.access(0.0, row_id=100)
        assert tracker.seen == [100]
        assert mc.stats.victim_refreshes == 4

    def test_delay_extends_completion(self):
        tracker = RecordingTracker({0: TrackerResponse(delay_ns=5000.0)})
        mc = make_controller(tracker)
        baseline = make_controller().access(0.0, row_id=1)
        delayed = mc.access(0.0, row_id=1)
        assert delayed == pytest.approx(baseline + 5000.0)
        assert mc.stats.total_delay_ns == 5000.0


class TestWindowManagement:
    def test_reset_fires_each_window(self):
        tracker = RecordingTracker()
        mc = make_controller(tracker)
        window = TIMING.refresh_window
        mc.access(0.5 * window, row_id=1)
        assert tracker.resets == 0
        mc.access(1.5 * window, row_id=2)
        assert tracker.resets == 1
        mc.access(3.5 * window, row_id=3)
        assert tracker.resets == 3

    def test_reset_divisor_honoured(self):
        class HalfWindowTracker(RecordingTracker):
            reset_divisor = 2

        tracker = HalfWindowTracker()
        mc = make_controller(tracker)
        mc.access(TIMING.refresh_window * 1.1, row_id=1)
        assert tracker.resets == 2


class TestEndToEndHydra:
    def test_hammering_through_controller_triggers_mitigations(self):
        config = HydraConfig(
            geometry=GEOMETRY, trh=100, gct_entries=16,
            rcc_entries=8, rcc_ways=4,
        )
        tracker = HydraTracker(config)
        mc = make_controller(tracker)
        t = 0.0
        for _ in range(400):
            t = mc.access(t, row_id=7)
            mc.banks[0].precharge_all()  # force each access to activate
        assert tracker.stats.mitigations >= 400 // config.th - 1
        assert mc.stats.victim_refreshes > 0

    def test_ocpr_through_controller(self):
        tracker = OcprTracker(GEOMETRY, trh=100)
        mc = make_controller(tracker)
        t = 0.0
        for _ in range(60):
            t = mc.access(t, row_id=7)
            mc.banks[0].precharge_all()
        assert tracker.mitigations == 1


class TestReporting:
    def test_activity_merges_all_banks(self):
        mc = make_controller()
        mc.access(0.0, row_id=1)
        mc.access(0.0, row_id=1024 + 1)
        assert mc.activity().activations == 2

    def test_refresh_count_scales_with_time(self):
        mc = make_controller()
        mc.access(10 * TIMING.t_refi, row_id=1)
        ranks = GEOMETRY.channels * GEOMETRY.ranks_per_channel
        assert mc.total_refreshes() >= 10 * ranks

    def test_bus_utilization_bounded(self):
        mc = make_controller()
        t = 0.0
        for i in range(50):
            t = mc.access(t, row_id=i, n_lines=4)
        assert 0.0 < mc.bus_utilization() <= 1.0


PARITY_CONFIG = SystemConfig(scale=1 / 256).with_trh(250)


def replay(tracker, trace, fused, observe, geometry, timing, mlp=16, **kwargs):
    """One run on the fused loop (``run_trace``) or the generic
    ``TrackerFeedback.drive`` path (``drive_in_order`` over ``access``);
    everything a run exposes, for field-by-field comparison."""
    mc = MemoryController(geometry, timing, tracker, **kwargs)
    observation = observe_controller(mc) if observe else None
    if fused:
        outcome = mc.run_trace(trace, mlp=mlp)
    else:
        outcome = drive_in_order(trace, mc.access, mlp)
    state = {
        "outcome": outcome,
        "end_time": mc.end_time,
        "stats": asdict(mc.stats),
        "activity": asdict(mc.activity()),
        "tracker": tracker.obs_snapshot(),
        "mitigations": tracker.mitigation_count(),
    }
    if observation is not None:
        chain = observation.registry.get("feedback_chain_length")
        state["chain"] = (chain.bucket_counts, chain.count, chain.total)
        state["observed"] = observation.finalize(outcome.end_time_ns).to_dict()
    return state


class TestFusedMetadataPath:
    """``run_trace``'s fused loop resolves meta-only tracker responses
    itself; it must match the generic feedback path exactly."""

    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize(
        "name", ["cra", "hydra-nogct", "hydra-norcc", "hydra"]
    )
    def test_fused_matches_generic_on_gups(self, name, observe):
        config = PARITY_CONFIG
        trace = trace_for_workload(config, "GUPS")
        fused, generic = (
            replay(
                make_tracker(name, config), trace, mode, observe,
                config.geometry, config.timing, mlp=config.mlp,
                blast_radius=config.blast_radius,
            )
            for mode in (True, False)
        )
        assert fused["stats"]["meta_accesses"] > 0
        if observe:
            assert fused["chain"][1] > 0  # slow-path events were seen
        assert fused == generic

    @pytest.mark.parametrize("defer_meta_writes", [True, False])
    def test_scripted_responses_match_generic(self, defer_meta_writes):
        """Every response shape, including meta-only ones that activate
        nothing (deferred writes, open-row hits): those still count as
        a zero-length chain in the observed histogram."""
        read_other_bank = MetaAccess(1024 + 512, 1, False)
        write_other_bank = MetaAccess(2048 + 7, 2, True)
        shapes = [
            TrackerResponse(meta_accesses=(write_other_bank,)),
            TrackerResponse(meta_accesses=(read_other_bank,)),
            TrackerResponse(meta_accesses=(read_other_bank,) * 2),
            TrackerResponse(
                meta_accesses=(read_other_bank, write_other_bank)
            ),
            TrackerResponse(mitigate_rows=(300,)),
            TrackerResponse(
                mitigate_rows=(301,), meta_accesses=(read_other_bank,)
            ),
            TrackerResponse(delay_ns=250.0, meta_accesses=(write_other_bank,)),
            TrackerResponse(),
        ]
        script = {i: shapes[i % len(shapes)] for i in range(0, 600, 3)}
        n = 300
        trace = Trace(
            gaps_ns=np.full(n, 30.0),
            rows=(np.arange(n) * 37) % 4096,
            lines=np.ones(n, dtype=np.int32),
            writes=np.arange(n) % 5 == 0,
        )
        fused, generic = (
            replay(
                RecordingTracker(script), trace, mode, True, GEOMETRY,
                TIMING, defer_meta_writes=defer_meta_writes,
            )
            for mode in (True, False)
        )
        assert fused["chain"][0][0] > 0  # zero-length chains observed
        assert fused == generic

    def test_meta_row_mitigation_resumes_the_worklist(self):
        """A metadata read activates an RCT row whose RIT-ACT counter
        then reaches T_H: the mitigation is issued by a feedback
        activation the fused loop handed to the worklist."""
        config = HydraConfig(
            geometry=GEOMETRY, trh=8, gct_entries=16,
            rcc_entries=8, rcc_ways=4, enable_gct=False,
        )
        n = 400
        trace = Trace(
            gaps_ns=np.full(n, 40.0),
            rows=np.arange(n) % 40,  # 40 rows of bank 0: RCC misses
            lines=np.ones(n, dtype=np.int32),
            writes=np.arange(n) % 7 == 0,
        )
        runs = []
        for fused in (True, False):
            tracker = HydraTracker(config)
            events = []
            on_activation = tracker.on_activation

            def recording(row_id, _inner=on_activation, _events=events):
                response = _inner(row_id)
                _events.append((row_id, response))
                return response

            tracker.on_activation = recording
            state = replay(
                tracker, trace, fused, True, GEOMETRY, TIMING
            )
            runs.append((state, events))
        (fused, fused_events), (generic, generic_events) = runs
        assert fused == generic
        assert fused_events == generic_events
        meta_base = tracker.rct.meta_base_local

        def is_meta_row(row):
            return row % GEOMETRY.rows_per_bank >= meta_base

        # A demand activation answered with metadata traffic only, and
        # the very next activation reported — the metadata row that
        # traffic opened — fired the RIT-ACT mitigation.
        resumed = [
            meta_row
            for (row, response), (meta_row, next_response) in zip(
                fused_events, fused_events[1:]
            )
            if not is_meta_row(row)
            and response is not None
            and response.meta_accesses
            and not response.mitigate_rows
            and is_meta_row(meta_row)
            and next_response is not None
            and next_response.mitigate_rows == (meta_row,)
        ]
        assert resumed
        assert fused["stats"]["victim_refreshes"] > 0
