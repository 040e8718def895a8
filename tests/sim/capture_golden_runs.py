"""Capture golden ``RunResult``s for the bit-identical parity test.

Run as a script to (re)generate ``golden_runs.json``::

    PYTHONPATH=src python tests/sim/capture_golden_runs.py

The file records, for every registered tracker on every engine, the
full ``RunResult`` of one representative figure-sweep cell, plus the
``cache_key()``/``trace_key()`` strings of the configurations the
sweeps use. ``tests/sim/test_golden_parity.py`` asserts current code
reproduces all of it field-for-field, so regenerating may only *add*
cells.

The committed copy was captured at the pre-optimization code (PR 3
head), so it pins the "bit-identical results" guarantee of the hot-path
optimization pass: regenerating it on newer code must be a no-op.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden_runs.json"

#: The golden cell: small enough to run every tracker quickly, busy
#: enough (GUPS hammers rows) to exercise mitigation and metadata paths.
GOLDEN_SCALE_DENOMINATOR = 128
GOLDEN_N_WINDOWS = 1
GOLDEN_WORKLOAD = "GUPS"


def golden_config(engine: str = "fast"):
    from repro.sim import SystemConfig

    return SystemConfig(
        scale=1.0 / GOLDEN_SCALE_DENOMINATOR,
        n_windows=GOLDEN_N_WINDOWS,
        engine=engine,
    )


def capture() -> dict:
    from repro.memctrl import ENGINES
    from repro.sim.simulator import simulate_workload
    from repro.trackers.registry import available_trackers

    runs = {}
    for engine in ENGINES:
        config = golden_config(engine)
        for tracker in available_trackers():
            result = simulate_workload(config, tracker, GOLDEN_WORKLOAD)
            runs[f"{tracker}/{engine}"] = result.to_dict()

    base = golden_config()
    keys = {
        "base_cache_key": base.cache_key(),
        "base_trace_key": base.trace_key(),
        "queued_cache_key": base.with_engine("queued").cache_key(),
        "trh125_cache_key": base.with_trh(125).cache_key(),
        "gct8k_cache_key": base.with_gct_entries(8192).cache_key(),
    }
    return {
        "workload": GOLDEN_WORKLOAD,
        "scale_denominator": GOLDEN_SCALE_DENOMINATOR,
        "n_windows": GOLDEN_N_WINDOWS,
        "keys": keys,
        "runs": runs,
    }


def main() -> None:
    payload = capture()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {GOLDEN_PATH} ({len(payload['runs'])} runs)")


if __name__ == "__main__":
    main()
