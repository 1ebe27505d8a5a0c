"""Integration test: exact reproduction of the paper's Section V numbers.

Every assertion in this file corresponds to a number printed in the
paper.  The analysis uses the closed-form wait-time bound (Eq. 20) and
the two-segment PWL dwell model, exactly as Section V does.
"""

import pytest

from repro.core.allocation import compare_resource_usage, make_analyzed
from repro.core.schedulability import analyze_application
from repro.core.timing_params import PAPER_TABLE_I, paper_application, priority_order
from repro.solvers import allocate


@pytest.fixture(scope="module")
def non_monotonic():
    apps = make_analyzed(PAPER_TABLE_I, "non-monotonic")
    return {app.name: app for app in apps}


@pytest.fixture(scope="module")
def monotonic():
    apps = make_analyzed(PAPER_TABLE_I, "conservative-monotonic")
    return {app.name: app for app in apps}


class TestTableI:
    def test_six_applications(self):
        assert len(PAPER_TABLE_I) == 6

    def test_spot_values(self):
        c3 = paper_application("C3")
        assert c3.min_inter_arrival == 15.0
        assert c3.deadline == 2.0
        assert c3.xi_tt == 0.39
        assert c3.xi_et == 3.97
        assert c3.xi_m == 0.64
        assert c3.k_p == 0.69
        assert c3.xi_m_mono == 0.77

    def test_priority_order_by_deadline(self):
        order = [app.name for app in priority_order(PAPER_TABLE_I)]
        assert order == ["C3", "C6", "C2", "C4", "C5", "C1"]


class TestSectionVStepByStep:
    def test_c3_alone_on_s1(self, non_monotonic):
        """xi_hat_3 = xi_TT_3 = 0.39 < 2."""
        result = analyze_application(non_monotonic["C3"], [])
        assert result.max_wait == 0.0
        assert result.worst_response == pytest.approx(0.39, abs=1e-9)
        assert result.schedulable

    def test_c6_joining_c3(self, non_monotonic):
        """k_hat_wait,6 = 0.669, xi_hat_6 = 1.589 < 6."""
        result = analyze_application(non_monotonic["C6"], [non_monotonic["C3"]])
        assert result.max_wait == pytest.approx(0.669, abs=5e-4)
        assert result.worst_response == pytest.approx(1.589, abs=2e-3)
        assert result.schedulable

    def test_c3_rechecked_with_c6(self, non_monotonic):
        """k_hat_wait,3 = xi_M_6 = 0.92, xi_hat_3 = 1.515 < 2."""
        result = analyze_application(non_monotonic["C3"], [non_monotonic["C6"]])
        assert result.max_wait == pytest.approx(0.92, abs=1e-9)
        assert result.worst_response == pytest.approx(1.515, abs=1e-3)
        assert result.schedulable

    def test_c2_breaks_c3_on_s1(self, non_monotonic):
        """Adding C2 to {C3, C6} makes C3 miss its deadline."""
        result = analyze_application(
            non_monotonic["C3"], [non_monotonic["C6"], non_monotonic["C2"]]
        )
        assert not result.schedulable

    def test_c2_c4_share_s2(self, non_monotonic):
        c2, c4 = non_monotonic["C2"], non_monotonic["C4"]
        assert analyze_application(c2, [c4]).schedulable
        assert analyze_application(c4, [c2]).schedulable

    def test_c5_c1_share_s3(self, non_monotonic):
        c5, c1 = non_monotonic["C5"], non_monotonic["C1"]
        assert analyze_application(c5, [c1]).schedulable
        assert analyze_application(c1, [c5]).schedulable


class TestAllocationOutcome:
    def test_non_monotonic_needs_three_slots(self, non_monotonic):
        result = allocate("first-fit", list(non_monotonic.values()))
        assert result.slot_count == 3
        assert result.slot_names == [["C3", "C6"], ["C2", "C4"], ["C5", "C1"]]

    def test_monotonic_needs_five_slots(self, monotonic):
        result = allocate("first-fit", list(monotonic.values()))
        assert result.slot_count == 5
        assert result.slot_names == [["C3", "C6"], ["C2"], ["C4"], ["C5"], ["C1"]]

    def test_monotonic_c2_with_c4_misses(self, monotonic):
        """k_hat'_wait,2 = xi'_M4 = 4.94, xi_hat'_2 = 6.426 > 6.25."""
        result = analyze_application(monotonic["C2"], [monotonic["C4"]])
        assert result.max_wait == pytest.approx(4.94, abs=1e-9)
        assert result.worst_response == pytest.approx(6.426, abs=2e-3)
        assert not result.schedulable

    def test_sixty_seven_percent_gap(self, non_monotonic, monotonic):
        nm = allocate("first-fit", list(non_monotonic.values()))
        mono = allocate("first-fit", list(monotonic.values()))
        assert compare_resource_usage(nm, mono) == pytest.approx(2.0 / 3.0)
