"""Figure 10: sensitivity to the GCT threshold T_G.

T_G trades filtering lifetime against per-row headroom: too low
(50% of T_H) and groups saturate early; too high (95%) and every row
in a saturated group mitigates almost immediately. The paper selects
80% (T_G = 200 for T_H = 250).
"""

from _common import bench_config, record_result, runner_for

TG_FRACTIONS = (0.50, 0.65, 0.80, 0.95)


def test_fig10_tg_threshold(benchmark):
    def run_sweep():
        runner = runner_for(bench_config())
        return {
            fraction: runner.compare(f"hydra@tg_fraction={fraction}").slowdowns()
            for fraction in TG_FRACTIONS
        }

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print("\n=== Figure 10: slowdown (%) vs T_G (as % of T_H) ===")
    suites = list(next(iter(results.values())))
    print(f"{'T_G':<10}" + "".join(f"{s:>12}" for s in suites))
    for fraction in TG_FRACTIONS:
        label = f"{int(fraction * 100)}% ({int(fraction * 250)})"
        print(
            f"{label:<10}"
            + "".join(f"{results[fraction][s]:>12.2f}" for s in suites)
        )

    all36 = {f: results[f]["ALL(36)"] for f in TG_FRACTIONS}
    # Shape: the default 80% beats the aggressive 50% filter and is at
    # least as good as (within noise of) the 95% setting overall.
    assert all36[0.80] < all36[0.50]
    assert all36[0.80] <= all36[0.95] + 0.3
    # Over-high T_G hurts PARSEC (the paper's §6.6 observation).
    assert (
        results[0.95]["PARSEC(7)"] >= results[0.80]["PARSEC(7)"] - 0.1
    )

    record_result(
        "fig10_tg_threshold",
        {str(f): {k: round(v, 3) for k, v in results[f].items()}
         for f in TG_FRACTIONS},
    )
