"""Tests for the best-fit / worst-fit allocation variants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import make_analyzed
from repro.core.schedulability import is_slot_schedulable
from repro.core.timing_params import PAPER_TABLE_I, TimingParameters
from repro.solvers import allocate


@pytest.fixture(scope="module")
def paper_apps():
    return make_analyzed(PAPER_TABLE_I, "non-monotonic")


class TestVariantsOnPaperSet:
    def test_best_fit_matches_first_fit(self, paper_apps):
        assert allocate("best-fit", paper_apps).slot_count == 3

    def test_worst_fit_valid_but_possibly_wider(self, paper_apps):
        result = allocate("worst-fit", paper_apps)
        assert result.all_schedulable()
        assert 3 <= result.slot_count <= len(paper_apps)

    def test_all_variants_schedulable(self, paper_apps):
        for name in ("first-fit", "best-fit", "worst-fit"):
            result = allocate(name, paper_apps)
            for slot in result.slots:
                assert is_slot_schedulable(slot)

    def test_every_app_placed_once(self, paper_apps):
        for name in ("best-fit", "worst-fit"):
            result = allocate(name, paper_apps)
            names = sorted(n for slot in result.slot_names for n in slot)
            assert names == sorted(p.name for p in PAPER_TABLE_I)


@st.composite
def random_rosters(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    apps = []
    for i in range(n):
        xi_tt = draw(st.floats(min_value=0.1, max_value=1.5))
        xi_m = xi_tt * draw(st.floats(min_value=1.0, max_value=2.0))
        xi_et = xi_m * draw(st.floats(min_value=2.0, max_value=4.0))
        deadline = xi_tt + draw(st.floats(min_value=0.5, max_value=20.0))
        r = deadline * draw(st.floats(min_value=1.0, max_value=5.0))
        apps.append(
            TimingParameters(
                name=f"A{i}",
                min_inter_arrival=r,
                deadline=deadline,
                xi_tt=xi_tt,
                xi_et=xi_et,
                xi_m=xi_m,
                k_p=0.3 * xi_et,
                xi_m_mono=1.2 * xi_m,
            )
        )
    return make_analyzed(apps, "non-monotonic")


class TestVariantProperties:
    @given(apps=random_rosters())
    @settings(max_examples=60, deadline=None)
    def test_all_heuristics_bounded_by_dedicated(self, apps):
        try:
            dedicated = allocate("dedicated", apps)
        except ValueError:
            return  # some app infeasible even alone: nothing to compare
        if not dedicated.all_schedulable():
            return
        for name in ("first-fit", "best-fit", "worst-fit"):
            try:
                result = allocate(name, apps)
            except ValueError:
                continue
            assert result.slot_count <= dedicated.slot_count
            assert result.all_schedulable()

    @given(apps=random_rosters())
    @settings(max_examples=60, deadline=None)
    def test_heuristics_place_every_app(self, apps):
        try:
            result = allocate("best-fit", apps)
        except ValueError:
            return
        placed = sorted(n for slot in result.slot_names for n in slot)
        assert placed == sorted(a.name for a in apps)


def _infeasible_app():
    """An application whose pure-TT response already misses its deadline,
    so no packing (not even a dedicated slot) can schedule it."""
    params = TimingParameters(
        name="doomed",
        min_inter_arrival=10.0,
        deadline=1.5,
        xi_tt=2.0,
        xi_et=5.0,
        xi_m=2.5,
        k_p=1.0,
        xi_m_mono=3.0,
    )
    return make_analyzed([params], "non-monotonic")


class TestInfeasibleErrorPaths:
    """All packing heuristics share the dedicated-slot feasibility guard."""

    @pytest.mark.parametrize("name", ["first-fit", "best-fit", "worst-fit"])
    def test_heuristics_raise_shared_message(self, name):
        with pytest.raises(
            ValueError, match="cannot meet its deadline even on a dedicated TT slot"
        ):
            allocate(name, _infeasible_app())

    def test_dedicated_reports_unschedulable_without_raising(self):
        result = allocate("dedicated", _infeasible_app())
        assert result.slot_count == 1
        assert not result.all_schedulable()

    @pytest.mark.parametrize("name", ["best-fit", "worst-fit"])
    def test_fixed_point_method_propagates(self, paper_apps, name):
        result = allocate(name, paper_apps, method="fixed-point")
        assert result.method == "fixed-point"
        assert result.all_schedulable()
        assert result.slot_count <= len(paper_apps)
