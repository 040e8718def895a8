"""Bit-identical parity against pre-optimization golden results.

``golden_runs.json`` was captured before the hot-path optimization
pass (see ``capture_golden_runs.py``), so these tests pin the pass's
core guarantee: the fused controller loop, the resolved trace stream,
the array-backed GCT, and the fused RCC increment change *nothing*
observable — every ``RunResult`` field (floats included, compared
exactly) and every configuration key string is reproduced verbatim.

If an intentional behaviour change ever invalidates the goldens,
regenerate them with::

    PYTHONPATH=src python tests/sim/capture_golden_runs.py

and say so in the commit message — this file failing is otherwise a
correctness regression, not a test to update.
"""

import json

import pytest

from tests.sim.capture_golden_runs import (
    GOLDEN_PATH,
    GOLDEN_WORKLOAD,
    golden_config,
)

from repro.memctrl import ENGINES
from repro.sim.simulator import simulate_workload
from repro.trackers.registry import available_trackers


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _cells():
    return [
        (tracker, engine)
        for engine in ENGINES
        for tracker in available_trackers()
    ]


def test_golden_file_covers_every_registered_cell(golden):
    """New trackers/engines must be added to the golden capture."""
    expected = {f"{tracker}/{engine}" for tracker, engine in _cells()}
    assert set(golden["runs"]) == expected


@pytest.mark.parametrize(
    "tracker,engine", _cells(), ids=lambda v: str(v)
)
def test_run_result_is_bit_identical(golden, tracker, engine):
    config = golden_config(engine)
    result = simulate_workload(config, tracker, GOLDEN_WORKLOAD)
    expected = golden["runs"][f"{tracker}/{engine}"]
    actual = result.to_dict()
    # Field-for-field, exact — float equality is the point: the
    # optimized pipeline performs the same arithmetic in the same
    # order, so even the last ulp must match.
    assert actual == expected


def test_config_keys_unchanged(golden):
    """Cache/trace keys are stable, so PR 1's result cache stays warm."""
    base = golden_config()
    assert golden["keys"] == {
        "base_cache_key": base.cache_key(),
        "base_trace_key": base.trace_key(),
        "queued_cache_key": base.with_engine("queued").cache_key(),
        "trh125_cache_key": base.with_trh(125).cache_key(),
        "gct8k_cache_key": base.with_gct_entries(8192).cache_key(),
    }

