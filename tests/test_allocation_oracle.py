"""Allocations re-checked by the critical-instant oracle.

Every allocator decides slot sharing through the registered wait-time
analysis (Eq. 20 or Eq. 5).  These tests replay each slot it returns in
its worst case with :mod:`tests.critical_instant`, a simulation that
shares no code with that analysis: the simulated wait must lie within
the bound the allocator used, and the response it implies must meet
the application's deadline.
"""

import pytest

from repro.core.allocation import make_analyzed
from repro.core.schedulability import (
    max_wait_closed_form,
    max_wait_fixed_point,
    max_wait_lower_bound,
    split_by_priority,
)
from repro.core.sensitivity import scale_deadlines
from repro.core.timing_params import PAPER_TABLE_I
from repro.solvers import allocate
from tests.critical_instant import simulate_critical_instant

ALLOCATORS = (
    "first-fit",
    "best-fit",
    "worst-fit",
    "dedicated",
    "optimal",
    "branch-and-bound",
    "anneal",
)

#: (deadline scale, dwell-model shape, analysis method).  The first two
#: are Section V's setting; at twice the deadlines the packings get
#: denser (up to five applications on one slot under the exact
#: analysis), so several higher-priority sharers re-request the slot.
CASES = {
    "paper-non-monotonic": (1.0, "non-monotonic", "closed-form"),
    "paper-monotonic": (1.0, "conservative-monotonic", "closed-form"),
    "loose-non-monotonic-exact": (2.0, "non-monotonic", "fixed-point"),
    "loose-monotonic-exact": (2.0, "conservative-monotonic", "fixed-point"),
}


def oracle_wait(app, slot):
    higher, lower = split_by_priority(app, [other for other in slot if other is not app])
    return simulate_critical_instant(app, higher, lower).wait_time


class TestEveryPackingSurvivesTheOracle:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("name", ALLOCATORS)
    def test_simulated_worst_case_meets_deadlines(self, name, case):
        scale, shape, method = CASES[case]
        apps = make_analyzed(scale_deadlines(PAPER_TABLE_I, scale), shape)
        options = {"seed": 0} if name == "anneal" else {}
        result = allocate(name, apps, method=method, **options)
        placed = sorted(app.name for slot in result.slots for app in slot)
        assert placed == sorted(p.name for p in PAPER_TABLE_I)
        for slot in result.slots:
            for app in slot:
                wait = oracle_wait(app, slot)
                bound = result.analyses[app.name].max_wait
                if method == "fixed-point":
                    assert wait == pytest.approx(bound, rel=1e-9, abs=1e-9)
                else:
                    assert wait <= bound + 1e-9
                response = app.dwell_model.worst_response_time(wait)
                assert response <= app.deadline + 1e-9, (name, case, app.name)


class TestPaperFirstFitSlots:
    """Section V's packing C3,C6 | C2,C4 | C5,C1, one application at a
    time: each shares its slot with exactly one other application, so
    its worst case is a single dwell of that sharer."""

    @pytest.fixture(scope="class")
    def first_fit(self):
        return allocate("first-fit", make_analyzed(PAPER_TABLE_I, "non-monotonic"))

    @pytest.mark.parametrize(
        "name, sharer, expected_wait",
        [
            ("C1", "C5", 4.58),  # C5's dwell, re-requested only every 20 s
            ("C2", "C4", 4.03),  # blocked by C4 already holding the slot
            ("C3", "C6", 0.92),
            ("C4", "C2", 2.95),
            ("C5", "C1", 5.30),
            ("C6", "C3", 0.64),
        ],
    )
    def test_wait_is_one_sharer_dwell(self, first_fit, name, sharer, expected_wait):
        slot = first_fit.slots[first_fit.slot_of(name)]
        app = next(a for a in slot if a.name == name)
        higher, lower = split_by_priority(app, [a for a in slot if a is not app])
        result = simulate_critical_instant(app, higher, lower)
        assert [busy_name for *_, busy_name in result.busy_intervals] == [sharer]
        assert result.wait_time == pytest.approx(expected_wait)
        assert result.wait_time == pytest.approx(max_wait_fixed_point(lower, higher))
        assert max_wait_lower_bound(lower, higher) <= result.wait_time + 1e-9
        assert result.wait_time <= max_wait_closed_form(lower, higher) + 1e-9
        assert app.dwell_model.worst_response_time(result.wait_time) <= app.deadline


def test_oracle_rejects_the_packing_first_fit_refused():
    """C2 joining C3's slot (Section V's first rejection): the simulated
    blocking by C2 alone pushes C3 past its 2 s deadline, so the oracle
    check above is not vacuous."""
    by_name = {app.name: app for app in make_analyzed(PAPER_TABLE_I, "non-monotonic")}
    slot = [by_name["C3"], by_name["C6"], by_name["C2"]]
    wait = oracle_wait(by_name["C3"], slot)
    assert wait == pytest.approx(2.95)
    assert by_name["C3"].dwell_model.worst_response_time(wait) > by_name["C3"].deadline
