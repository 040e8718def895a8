"""Pin the cold grids' cell digests for a set of seeds.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-31,2022

Runs one plain pass of each cold grid per seed and writes
``perfbench/pins.json`` (workload -> seed -> cell -> digest), which
``run.py`` compares every pass against. Re-pin only when a change is
meant to move simulation results, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from common import GRIDS, WORK, load_pins
from run import run_grid_pass

PINS = Path(__file__).resolve().parent / "pins.json"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31,2022")
    args = parser.parse_args()
    pins = load_pins()
    run_dir = WORK / "pin"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for seed in parse_seeds(args.seeds):
            for workload, definition in GRIDS.items():
                report = run_grid_pass(workload, seed, False, "plain",
                                       definition["jobs"], run_dir / "pass", tmp)
                if "error" in report or report["failures"]:
                    print(f"{workload} seed {seed}: {report}", file=sys.stderr)
                    return 1
                pins.setdefault(workload, {})[str(seed)] = report["cells"]
                print(f"{workload} seed {seed}: {len(report['cells'])} cells")
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
