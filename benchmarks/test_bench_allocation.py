"""Benchmark E4 — regenerate the Section V slot-allocation case study.

Paper result (asserted exactly): 3 TT slots with the non-monotonic
model, 5 with the conservative monotonic one — 67 % more communication
resources.
"""

import pytest

from repro.core.allocation import make_analyzed
from repro.core.timing_params import PAPER_TABLE_I
from repro.experiments.allocation import run_paper_allocation, run_simulation_allocation
from repro.solvers import allocate


def test_bench_allocation_paper_case_study(benchmark):
    comparison = benchmark(run_paper_allocation)
    print("\n" + comparison.report())
    assert comparison.non_monotonic.slot_count == 3
    assert comparison.non_monotonic.slot_names == [
        ["C3", "C6"],
        ["C2", "C4"],
        ["C5", "C1"],
    ]
    assert comparison.monotonic.slot_count == 5
    assert comparison.extra_resource_fraction == pytest.approx(2 / 3)


def test_bench_allocation_first_fit(benchmark):
    apps = make_analyzed(PAPER_TABLE_I, "non-monotonic")
    result = benchmark(lambda: allocate("first-fit", apps))
    assert result.slot_count == 3


def test_bench_allocation_exhaustive_optimum(benchmark):
    apps = make_analyzed(PAPER_TABLE_I, "non-monotonic")
    result = benchmark(lambda: allocate("optimal", apps))
    assert result.slot_count == 3


def test_bench_allocation_simulation_mode(benchmark, sim_apps):
    comparison = benchmark(lambda: run_simulation_allocation(wait_step=4))
    print("\n" + comparison.report())
    assert comparison.non_monotonic.slot_count < comparison.monotonic.slot_count
