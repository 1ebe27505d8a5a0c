"""Benchmark E3 — regenerate Table I.

Paper mode is verbatim (asserted exactly); simulation mode regenerates
the analogue table from the six plants through the characterisation
pipeline (that pipeline is what gets benchmarked).
"""


from repro.core.timing_params import PAPER_TABLE_I
from repro.experiments.table1 import Table1Result, run_table1
from repro.pipeline.cache import GLOBAL_DWELL_CACHE


def test_bench_table1_paper_mode(benchmark):
    result = benchmark(lambda: run_table1(include_simulation=False))
    print("\n" + result.paper_report())
    c3 = next(p for p in result.paper if p.name == "C3")
    assert c3.xi_tt == 0.39
    assert c3.deadline == 2.0
    assert len(result.paper) == 6


def test_bench_table1_characterization_pipeline(benchmark):
    """Cost of characterising one application end-to-end."""
    app = benchmark.pedantic(
        lambda: GLOBAL_DWELL_CACHE.characterized(
            "electric-power-steering",
            et_detuning=500.0,
            min_inter_arrival=200.0,
            deadline=7.5,
            wait_step=4,
        ),
        rounds=1,
        iterations=1,
    )
    assert app.params.xi_tt <= app.params.xi_et


def test_bench_table1_simulation_mode(benchmark, sim_apps):
    result = Table1Result(paper=list(PAPER_TABLE_I), simulated=sim_apps)
    text = benchmark(result.simulated_report)
    print("\n" + text)
    for app in sim_apps:
        assert app.params.xi_m_mono >= app.params.xi_m >= app.params.xi_tt
