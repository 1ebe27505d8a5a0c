"""Benchmarks E9-E10 — bound-soundness validation and the pure-ET baseline."""

from repro.experiments.validation import run_bound_validation, run_pure_et_baseline


def test_bench_bound_validation(benchmark, sim_apps):
    result = benchmark.pedantic(
        lambda: run_bound_validation(seeds=5, horizon=120.0, wait_step=4),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.report())
    assert result.sound()


def test_bench_pure_et_baseline(benchmark, sim_apps):
    result = benchmark.pedantic(
        lambda: run_pure_et_baseline(wait_step=4),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.report())
    assert result.pure_et_misses
    assert not result.hybrid_misses
