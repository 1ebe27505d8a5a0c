"""Benchmark E6 — PWL segment-count ablation (Sec. III's extension remark).

More segments give tighter dwell bounds and never need more TT slots.
"""

from repro.experiments.ablations import run_segment_ablation


def test_bench_segment_ablation(benchmark, sim_apps):
    result = benchmark(lambda: run_segment_ablation(wait_step=4))
    print("\n" + result.report())
    assert (
        result.slot_counts["concave-envelope"]
        <= result.slot_counts["two-segment"]
        <= result.slot_counts["conservative-monotonic"]
    )
