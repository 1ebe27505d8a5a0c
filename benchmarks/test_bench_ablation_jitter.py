"""Benchmark E11 — delay-equalisation (jitter buffering) ablation."""

from repro.experiments.ablations import run_jitter_ablation


def test_bench_jitter_ablation(benchmark, sim_apps):
    result = benchmark.pedantic(
        lambda: run_jitter_ablation(wait_step=4, horizon=20.0),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.report())
    # Equalised actuation never misses; raw jitter may degrade responses.
    assert result.equalized_misses == 0
    for name, equalized in result.equalized.items():
        assert result.raw[name] >= equalized - 1e-9
