"""Benchmark E5 — regenerate Figure 5 (six-application co-simulation).

All applications are disturbed at t = 0 and must settle within their
deadlines using the TT-slot allocation from the non-monotonic analysis.
Run both over the cycle-accurate FlexRay bus and the analytic network.
"""

from repro.experiments.fig5 import run_fig5


def test_bench_fig5_flexray(benchmark, sim_apps):
    result = benchmark.pedantic(
        lambda: run_fig5(wait_step=4, use_flexray=True),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.report(plots=True))
    assert result.all_deadlines_met()


def test_bench_fig5_analytic(benchmark, sim_apps):
    result = benchmark(
        lambda: run_fig5(wait_step=4, use_flexray=False, horizon=15.0)
    )
    assert result.trace.apps  # trace recorded for every app


def test_bench_fig5_bus_throughput(benchmark):
    """Raw FlexRay bus cycles per second (substrate performance)."""
    from repro.flexray import FlexRayBus, FrameSpec, Message, paper_bus_config

    def run_bus():
        bus = FlexRayBus(config=paper_bus_config())
        spec = FrameSpec(frame_id=1)
        for _ in range(200):
            bus.submit_et(Message(spec=spec, release_time=bus.time))
            bus.run_cycle()
        return bus.statistics.et_deliveries

    delivered = benchmark(run_bus)
    assert delivered == 200
