"""Tests for the deadline-sensitivity analysis."""

import pytest

from repro.core.sensitivity import (
    critical_scale,
    deadline_sensitivity,
    scale_deadlines,
    static_segment_usage,
)
from repro.core.timing_params import PAPER_TABLE_I
from repro.solvers import UnknownSolverError


class TestScaleDeadlines:
    def test_identity_scale(self):
        scaled = scale_deadlines(PAPER_TABLE_I, 1.0)
        assert [p.deadline for p in scaled] == [p.deadline for p in PAPER_TABLE_I]

    def test_scaling_clamps_to_inter_arrival(self):
        scaled = scale_deadlines(PAPER_TABLE_I, 100.0)
        for original, new in zip(PAPER_TABLE_I, scaled):
            assert new.deadline == original.min_inter_arrival

    def test_other_fields_untouched(self):
        scaled = scale_deadlines(PAPER_TABLE_I, 0.9)
        for original, new in zip(PAPER_TABLE_I, scaled):
            assert new.xi_tt == original.xi_tt
            assert new.xi_m == original.xi_m


class TestDeadlineSensitivity:
    def test_paper_point_reproduced(self):
        points = deadline_sensitivity(PAPER_TABLE_I, [1.0])
        assert points[0].slots_non_monotonic == 3
        assert points[0].slots_monotonic == 5

    def test_looser_deadlines_never_need_more_slots(self):
        points = deadline_sensitivity(PAPER_TABLE_I, [1.0, 1.5, 2.0, 3.0])
        feasible = [p for p in points if p.feasible]
        counts = [p.slots_non_monotonic for p in feasible]
        assert counts == sorted(counts, reverse=True)

    def test_very_tight_deadlines_become_infeasible(self):
        points = deadline_sensitivity(PAPER_TABLE_I, [0.1])
        assert points[0].slots_non_monotonic is None

    def test_non_monotonic_never_needs_more_than_monotonic(self):
        points = deadline_sensitivity(PAPER_TABLE_I, [0.8, 1.0, 1.5, 2.5])
        for point in points:
            if point.slots_non_monotonic is None or point.slots_monotonic is None:
                continue
            assert point.slots_non_monotonic <= point.slots_monotonic


class TestCriticalScale:
    def test_transition_found(self):
        scale = critical_scale(PAPER_TABLE_I, lo=0.05, hi=1.0)
        assert 0.05 < scale <= 1.0
        # Just above the critical scale the set is feasible...
        assert deadline_sensitivity(PAPER_TABLE_I, [scale * 1.01])[0].feasible
        # ...and well below it, infeasible.
        assert not deadline_sensitivity(PAPER_TABLE_I, [scale * 0.5])[0].feasible

    def test_feasible_lo_returns_lo(self):
        assert critical_scale(PAPER_TABLE_I, lo=0.99, hi=1.0) == pytest.approx(0.99)


class TestUnknownMethod:
    """A mistyped analysis method is an error, not an infeasible point."""

    def test_deadline_sensitivity_raises(self):
        with pytest.raises(UnknownSolverError, match="closed-from"):
            deadline_sensitivity(PAPER_TABLE_I, [1.0], method="closed-from")

    def test_critical_scale_raises(self):
        with pytest.raises(UnknownSolverError, match="closed-from"):
            critical_scale(PAPER_TABLE_I, method="closed-from")


class TestStaticSegmentUsage:
    def test_paper_bus_fits_three_slots(self):
        usage = static_segment_usage(slot_count=3, static_slots=10)
        assert usage.fits
        assert usage.fraction == pytest.approx(0.3)

    def test_overflow_detected(self):
        usage = static_segment_usage(slot_count=12, static_slots=10)
        assert not usage.fits
