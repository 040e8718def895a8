#!/usr/bin/env python3
"""Why probabilistic RowHammer defenses fail at ultra-low thresholds.

Reproduces §7.3's two observations side by side:

1. PARA's per-activation refresh probability must grow inversely with
   T_RH, so its refresh traffic explodes exactly where the problem is
   hardest.
2. MRLOC and ProHIT make probabilistic *tracking* decisions and can be
   defeated outright — the Theorem-1 oracle finds real activation
   sequences that cross the threshold unmitigated, something that
   cannot happen to Hydra.

Run:  python examples/why_probabilistic_fails.py
"""

from repro.analysis.security import verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import many_sided_program, single_sided_program
from repro.core import HydraConfig, HydraTracker
from repro.trackers.insecure import MrlocTracker, ProhitTracker
from repro.trackers.para import para_probability


def para_scaling() -> None:
    print("=== PARA: mitigation probability vs threshold ===")
    print(f"{'T_RH':>8} {'p':>12} {'refreshes per 1M ACTs':>24}")
    for trh in (139_000, 32_000, 4_800, 1_000, 500, 125):
        p = para_probability(trh)
        print(f"{trh:>8} {p:>12.6f} {p * 1e6:>24,.0f}")
    print(
        "\nAt DDR3-era thresholds PARA was nearly free; at T_RH=125 it "
        "refreshes neighbours every ~4-5 activations.\n"
    )


def tracking_insecurity() -> None:
    config = HydraConfig().scaled(1 / 32)
    geometry = config.geometry
    th = config.th

    print("=== Probabilistic tracking vs the Theorem-1 oracle ===")
    single = compile_program(resolve(single_sided_program(5, th + 25))).rows()
    many = compile_program(
        resolve(many_sided_program(range(100, 164), th + 10))
    ).rows()

    broken_seed = None
    for seed in range(60):
        tracker = MrlocTracker(base_probability=0.002, seed=seed)
        report = verify_tracker(tracker, geometry, single, th)
        if not report.secure:
            broken_seed = seed
            violation = report.violations[0]
            break
    assert broken_seed is not None
    print(
        f"MRLOC   : VIOLATED (seed {broken_seed}) — row "
        f"{violation.row} reached {violation.true_count} unmitigated "
        f"activations (bound {th})"
    )

    broken_seed = None
    for seed in range(60):
        tracker = ProhitTracker(seed=seed)
        report = verify_tracker(tracker, geometry, many, th)
        if not report.secure:
            broken_seed = seed
            break
    assert broken_seed is not None
    print(f"ProHIT  : VIOLATED (seed {broken_seed}) — an aggressor was "
          "never sampled before crossing the threshold")

    report = verify_tracker(
        HydraTracker(config), geometry, single + many, th
    )
    print(
        f"Hydra   : {'SECURE' if report.secure else 'VIOLATED'} — "
        f"max unmitigated {report.max_unmitigated_count}/{th} over "
        f"{report.activations} activations"
    )
    print(
        "\nHydra's guarantee is structural (GCT overcounts, RCT is "
        "per-row exact), not statistical — no seed hunting can break it."
    )


def main() -> None:
    para_scaling()
    tracking_insecurity()


if __name__ == "__main__":
    main()
