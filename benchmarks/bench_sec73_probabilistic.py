"""§7.3: probabilistic methods at ultra-low thresholds.

Two claims to reproduce:

1. PARA's mitigation probability "must be increased proportionately as
   T_RH is reduced, which causes significant performance overheads at
   T_RH of 1000 or lower" — the mitigation rate (and hence refresh
   traffic) scales inversely with the threshold.
2. "MRLOC and ProHIT also use probabilistic decisions, however, they
   are not secure" — the Theorem-1 oracle exhibits threshold
   violations for both, while PARA's *statistical* guarantee and
   Hydra's deterministic one hold at their design points.
"""

from _common import bench_config, record_result

from repro.analysis.security import verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import many_sided_program, single_sided_program
from repro.core.hydra import HydraTracker
from repro.trackers.insecure import MrlocTracker, ProhitTracker
from repro.trackers.para import para_probability


def _rows(program):
    return compile_program(resolve(program)).rows()


def test_sec73_para_probability_scaling(benchmark):
    thresholds = (32000, 4000, 1000, 500, 250, 125)

    def compute():
        return {trh: para_probability(trh) for trh in thresholds}

    probabilities = benchmark.pedantic(compute, rounds=1, iterations=1)

    print("\n=== §7.3: PARA mitigation probability vs T_RH ===")
    print(f"{'T_RH':<8} {'p':>10} {'mitigations per 1M ACTs':>25}")
    payload = {}
    for trh, p in probabilities.items():
        per_million = p * 1_000_000
        print(f"{trh:<8} {p:>10.6f} {per_million:>25.0f}")
        payload[str(trh)] = {"p": p, "mitigations_per_1m_acts": per_million}

    # Shape: p (and refresh traffic) scales ~inversely with T_RH; at
    # T_RH=32K it is well under 0.1% (the paper's "p < 1%"), while at
    # ultra-low thresholds it is orders of magnitude higher.
    assert probabilities[32000] < 0.001
    assert probabilities[500] / probabilities[32000] > 30
    assert probabilities[125] > probabilities[250] > probabilities[500]

    record_result("sec73_para_scaling", payload)


def test_sec73_probabilistic_insecurity(benchmark):
    config = bench_config()
    geometry = config.geometry
    th = config.hydra_config().th

    def hunt():
        outcomes = {"mrloc": False, "prohit": False, "hydra_violations": 0}
        for seed in range(40):
            mrloc = MrlocTracker(base_probability=0.002, seed=seed)
            if not verify_tracker(
                mrloc, geometry, _rows(single_sided_program(5, th + 25)), th
            ).secure:
                outcomes["mrloc"] = True
                break
        for seed in range(40):
            prohit = ProhitTracker(seed=seed)
            sequence = _rows(many_sided_program(range(100, 164), th + 10))
            if not verify_tracker(prohit, geometry, sequence, th).secure:
                outcomes["prohit"] = True
                break
        # Control: Hydra under the same sequences, many repetitions.
        for _ in range(5):
            tracker = HydraTracker(config.hydra_config())
            report = verify_tracker(
                tracker, geometry, _rows(single_sided_program(5, 4 * th)), th
            )
            outcomes["hydra_violations"] += len(report.violations)
        return outcomes

    outcomes = benchmark.pedantic(hunt, rounds=1, iterations=1)

    print("\n=== §7.3: security verdicts ===")
    print(f"MRLOC violated: {outcomes['mrloc']} (paper: not secure)")
    print(f"ProHIT violated: {outcomes['prohit']} (paper: not secure)")
    print(f"Hydra violations: {outcomes['hydra_violations']} (must be 0)")

    assert outcomes["mrloc"], "oracle should defeat MRLOC"
    assert outcomes["prohit"], "oracle should defeat ProHIT"
    assert outcomes["hydra_violations"] == 0

    record_result(
        "sec73_insecurity",
        {
            "mrloc_violated": outcomes["mrloc"],
            "prohit_violated": outcomes["prohit"],
            "hydra_violations": outcomes["hydra_violations"],
        },
    )
