"""Unit tests for repro.core.allocation."""

import pytest

from repro.core.allocation import compare_resource_usage, make_analyzed
from repro.core.schedulability import is_slot_schedulable
from repro.core.timing_params import PAPER_TABLE_I, TimingParameters
from repro.solvers import allocate


def params(name, r, deadline, xi_tt=0.3, xi_et=3.0, xi_m=0.8, k_p=0.5, xi_m_mono=1.0):
    return TimingParameters(
        name=name,
        min_inter_arrival=r,
        deadline=deadline,
        xi_tt=xi_tt,
        xi_et=xi_et,
        xi_m=xi_m,
        k_p=k_p,
        xi_m_mono=xi_m_mono,
    )


@pytest.fixture(scope="module")
def paper_apps():
    return make_analyzed(PAPER_TABLE_I, "non-monotonic")


class TestFirstFit:
    def test_every_slot_schedulable(self, paper_apps):
        result = allocate("first-fit", paper_apps)
        assert result.all_schedulable()
        for slot in result.slots:
            assert is_slot_schedulable(slot)

    def test_every_app_placed_exactly_once(self, paper_apps):
        result = allocate("first-fit", paper_apps)
        names = [name for slot in result.slot_names for name in slot]
        assert sorted(names) == sorted(p.name for p in PAPER_TABLE_I)

    def test_priority_order_inside_run(self):
        # Two trivially compatible apps end up sharing the first slot.
        apps = make_analyzed(
            [
                params("A", 100.0, 50.0, xi_m=0.5),
                params("B", 100.0, 60.0, xi_m=0.5),
            ]
        )
        result = allocate("first-fit", apps)
        assert result.slot_count == 1
        assert result.slot_names == [["A", "B"]]

    def test_incompatible_apps_get_separate_slots(self):
        apps = make_analyzed(
            [
                params("A", 10.0, 0.5, xi_tt=0.4, xi_m=0.45, k_p=0.2, xi_m_mono=0.5),
                params("B", 50.0, 30.0, xi_m=5.0, xi_et=40.0, k_p=2.0, xi_m_mono=6.0),
            ]
        )
        result = allocate("first-fit", apps)
        assert result.slot_count == 2

    def test_unschedulable_alone_raises(self):
        apps = make_analyzed(
            [params("A", 10.0, 0.2, xi_tt=0.3, xi_m=0.4, k_p=0.1, xi_m_mono=0.5)]
        )
        with pytest.raises(ValueError, match="dedicated TT slot"):
            allocate("first-fit", apps)

    def test_max_slots_cap(self, paper_apps):
        with pytest.raises(ValueError, match="more than the available"):
            allocate("first-fit", paper_apps, max_slots=2)

    def test_slot_of_lookup(self, paper_apps):
        result = allocate("first-fit", paper_apps)
        for index, slot in enumerate(result.slot_names):
            for name in slot:
                assert result.slot_of(name) == index
        with pytest.raises(KeyError):
            result.slot_of("C99")


class TestDedicated:
    def test_one_slot_per_app(self, paper_apps):
        result = allocate("dedicated", paper_apps)
        assert result.slot_count == len(paper_apps)
        assert all(len(slot) == 1 for slot in result.slots)
        assert result.all_schedulable()


class TestOptimal:
    def test_matches_first_fit_on_paper_set(self, paper_apps):
        """The heuristic happens to be optimal on the paper's six apps."""
        heuristic = allocate("first-fit", paper_apps)
        optimal = allocate("optimal", paper_apps)
        assert optimal.slot_count == heuristic.slot_count == 3
        assert optimal.all_schedulable()

    def test_never_worse_than_first_fit(self):
        apps = make_analyzed(
            [
                params("A", 30.0, 4.0, xi_m=1.2, xi_m_mono=1.5),
                params("B", 30.0, 5.0, xi_m=1.2, xi_m_mono=1.5),
                params("C", 30.0, 6.0, xi_m=1.2, xi_m_mono=1.5),
                params("D", 30.0, 7.0, xi_m=1.2, xi_m_mono=1.5),
            ]
        )
        assert (
            allocate("optimal", apps).slot_count
            <= allocate("first-fit", apps).slot_count
        )

    def test_refuses_large_instances(self, paper_apps):
        with pytest.raises(ValueError, match="exponential"):
            allocate("optimal", paper_apps * 2, max_apps=10)


class TestComparison:
    def test_paper_resource_gap(self):
        non_mono = allocate("first-fit", make_analyzed(PAPER_TABLE_I, "non-monotonic"))
        mono = allocate(
            "first-fit", make_analyzed(PAPER_TABLE_I, "conservative-monotonic")
        )
        gap = compare_resource_usage(non_mono, mono)
        assert gap == pytest.approx(2.0 / 3.0)  # the paper's 67 %
