"""§5: security verification throughput across attack patterns.

Runs the Theorem-1 oracle check for every adaptive attack the paper
discusses, at the benchmark scale, and reports verified activation
throughput. All patterns must verify SECURE.
"""

from _common import bench_config, record_result

from repro.analysis.security import verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import (
    double_sided_program,
    half_double_program,
    many_sided_program,
    rcc_thrash_program,
    rct_region_program,
    single_sided_program,
    thrash_then_hammer_program,
)
from repro.core.hydra import HydraTracker


def build_patterns(config):
    geometry = config.geometry
    th = config.hydra_config().th
    programs = {
        "single-sided": single_sided_program(1000, 40 * th),
        "double-sided": double_sided_program(2000, 20 * th),
        "many-sided": many_sided_program(range(3000, 3064), 4 * th),
        "half-double": half_double_program(4000, 40 * th),
        "thrash": thrash_then_hammer_program(
            5000, range(6000, 6512), 8 * th, interleave=8
        ),
        "rcc-thrash": rcc_thrash_program(geometry, 2000, 30),
        "rct-region": rct_region_program(geometry, 20 * th),
    }
    return {
        name: compile_program(resolve(program)).rows()
        for name, program in programs.items()
    }


def test_sec5_attack_verification(benchmark):
    config = bench_config()
    patterns = build_patterns(config)
    hydra_config = config.hydra_config()
    th = hydra_config.th

    def verify_all():
        reports = {}
        for name, sequence in patterns.items():
            tracker = HydraTracker(hydra_config)
            reports[name] = verify_tracker(
                tracker, config.geometry, sequence, th
            )
        return reports

    reports = benchmark.pedantic(verify_all, rounds=1, iterations=1)

    print("\n=== §5: Theorem-1 verification ===")
    print(
        f"{'pattern':<14} {'status':<8} {'ACTs':>9} {'mitig.':>7} "
        f"{'max-unmitigated':>16}"
    )
    payload = {}
    for name, report in reports.items():
        status = "SECURE" if report.secure else "VIOLATED"
        print(
            f"{name:<14} {status:<8} {report.activations:>9} "
            f"{report.mitigations:>7} "
            f"{report.max_unmitigated_count:>11}/{th}"
        )
        payload[name] = {
            "secure": report.secure,
            "activations": report.activations,
            "mitigations": report.mitigations,
            "max_unmitigated": report.max_unmitigated_count,
        }
        assert report.secure, name
        assert report.max_unmitigated_count <= th

    # Hammering patterns must actually draw mitigations.
    for name in ("single-sided", "double-sided", "half-double", "thrash"):
        assert reports[name].mitigations > 0, name

    record_result("sec5_security", payload)
