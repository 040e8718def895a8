"""Figure 9: sensitivity to GCT capacity (16K / 32K / 64K entries).

Halving the GCT doubles the row-group size, so groups saturate faster
and more rows fall through to per-row tracking. The paper: 16K hurts
(GUPS dramatically), 32K is the sweet spot, 64K buys little more.
"""

from _common import bench_config, record_result, runner_for

GCT_SIZES = (16384, 32768, 65536)


def test_fig9_gct_capacity(benchmark):
    def run_sweep():
        runner = runner_for(bench_config())
        return {
            entries: runner.compare(f"hydra@gct_entries={entries}").slowdowns()
            for entries in GCT_SIZES
        }

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print("\n=== Figure 9: slowdown (%) vs GCT entries (full-scale) ===")
    suites = list(next(iter(results.values())))
    print(f"{'GCT':<8}" + "".join(f"{s:>12}" for s in suites))
    for entries in GCT_SIZES:
        label = f"{entries // 1024}K"
        print(
            f"{label:<8}"
            + "".join(f"{results[entries][s]:>12.2f}" for s in suites)
        )

    all36 = {e: results[e]["ALL(36)"] for e in GCT_SIZES}
    # Shape: smaller GCT is strictly worse; 32K->64K gains are small.
    assert all36[16384] > all36[32768] >= all36[65536]
    assert all36[16384] > 1.5 * all36[32768]
    assert all36[32768] - all36[65536] < 1.0

    record_result(
        "fig9_gct_size",
        {str(e): {k: round(v, 3) for k, v in results[e].items()}
         for e in GCT_SIZES},
    )
