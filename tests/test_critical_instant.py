"""Tests for the critical-instant simulation (cross-check of Eq. 5)."""

import pytest
from hypothesis import assume, given, settings

from repro.core.schedulability import (
    AnalyzedApplication,
    interference_utilization,
    max_wait_closed_form,
    max_wait_fixed_point,
    max_wait_lower_bound,
)
from repro.core.timing_params import PAPER_TABLE_I
from tests.critical_instant import (
    simulate_critical_instant,
    wait_time_matches_fixed_point,
)
from tests.test_property_schedulability import slot_configurations


def paper_app(name):
    return AnalyzedApplication.from_params(
        next(p for p in PAPER_TABLE_I if p.name == name)
    )


class TestPaperScenarios:
    def test_c6_waits_one_c3_dwell(self):
        """C6 joining C3: the critical instant is one C3 dwell (0.64 s);
        the paper's closed form (0.669 s) upper-bounds it."""
        result = simulate_critical_instant(
            paper_app("C6"), higher_priority=[paper_app("C3")], lower_priority=[]
        )
        assert result.wait_time == pytest.approx(0.64)
        assert result.wait_time <= 0.669
        assert [name for *_ , name in result.busy_intervals] == ["C3"]

    def test_c3_blocked_by_c6(self):
        """C3 re-checked with C6 below it: pure blocking, 0.92 s."""
        result = simulate_critical_instant(
            paper_app("C3"), higher_priority=[], lower_priority=[paper_app("C6")]
        )
        assert result.wait_time == pytest.approx(0.92)
        assert result.busy_intervals[0][2] == "C6"

    def test_no_sharers_no_wait(self):
        result = simulate_critical_instant(
            paper_app("C1"), higher_priority=[], lower_priority=[]
        )
        assert result.wait_time == 0.0
        assert result.busy_intervals == []

    def test_matches_fixed_point_on_paper_set(self):
        by_name = {p.name: AnalyzedApplication.from_params(p) for p in PAPER_TABLE_I}
        # C5 in the busiest configuration: blocked by C1, interfered by the rest.
        subject = by_name["C5"]
        higher = [by_name[n] for n in ("C3", "C6", "C2", "C4")]
        lower = [by_name["C1"]]
        assert wait_time_matches_fixed_point(subject, higher, lower)

    def test_busy_intervals_are_contiguous_from_zero(self):
        by_name = {p.name: AnalyzedApplication.from_params(p) for p in PAPER_TABLE_I}
        result = simulate_critical_instant(
            by_name["C5"],
            higher_priority=[by_name["C3"], by_name["C6"]],
            lower_priority=[by_name["C1"]],
        )
        expected_start = 0.0
        for start, end, _name in result.busy_intervals:
            assert start == pytest.approx(expected_start)
            assert end > start
            expected_start = end
        assert result.wait_time == pytest.approx(expected_start)


class TestSimulationAgainstAnalysis:
    @given(config=slot_configurations())
    @settings(max_examples=150, deadline=None)
    def test_simulation_equals_fixed_point(self, config):
        """The analytical fixed point is exactly the simulated wait."""
        lower, higher = config
        assume(interference_utilization(higher) < 0.9)
        subject = AnalyzedApplication.from_params(PAPER_TABLE_I[0])
        simulated = simulate_critical_instant(subject, higher, lower).wait_time
        analytical = max_wait_fixed_point(lower, higher)
        assert simulated == pytest.approx(analytical, rel=1e-9, abs=1e-9)

    @given(config=slot_configurations())
    @settings(max_examples=100, deadline=None)
    def test_simulation_within_closed_form_bounds(self, config):
        lower, higher = config
        assume(interference_utilization(higher) < 0.9)
        subject = AnalyzedApplication.from_params(PAPER_TABLE_I[0])
        simulated = simulate_critical_instant(subject, higher, lower).wait_time
        assert simulated <= max_wait_closed_form(lower, higher) + 1e-9
        assert simulated >= max_wait_lower_bound(lower, higher) - 1e-9
