"""Tests for the pluggable solver-backend API (repro.solvers)."""

import json

import pytest

from repro.cli import main
from repro.core.allocation import make_analyzed
from repro.core.schedulability import analyze_application
from repro.core.timing_params import PAPER_TABLE_I, TimingParameters
from repro.pipeline import DesignStudy, Scenario
from repro.solvers import (
    AllocatorSpec,
    InfeasibleAllocationError,
    InstanceTooLargeError,
    SolverError,
    UnknownSolverError,
    allocate,
    allocator_names,
    allocators,
    analysis_method_names,
    analysis_methods,
    finalize_slots,
    get_allocator,
    get_analysis_method,
    register_allocator,
    register_analysis_method,
    require_fits_alone,
    solver_table,
    unregister_allocator,
    unregister_analysis_method,
)
from repro.solvers.common import FeasibilityCache


@pytest.fixture(scope="module")
def paper_apps():
    return make_analyzed(PAPER_TABLE_I, "non-monotonic")


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


class TestRegistry:
    def test_builtin_allocators_registered(self):
        names = allocator_names()
        for expected in (
            "first-fit",
            "best-fit",
            "worst-fit",
            "dedicated",
            "optimal",
            "branch-and-bound",
            "anneal",
        ):
            assert expected in names

    def test_builtin_methods_registered(self):
        assert analysis_method_names() == [
            "closed-form",
            "fixed-point",
            "lower-bound",
        ]

    def test_unknown_allocator_diagnostic(self):
        with pytest.raises(UnknownSolverError, match="registered allocators"):
            get_allocator("quantum-fit")
        assert issubclass(UnknownSolverError, ValueError)

    def test_unknown_method_diagnostic(self):
        with pytest.raises(UnknownSolverError, match="unknown method"):
            get_analysis_method("oracle")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_allocator("first-fit")(lambda apps, method="closed-form": None)
        with pytest.raises(ValueError, match="already registered"):
            register_analysis_method("closed-form")(lambda lo, hi: 0.0)

    def test_capability_metadata(self):
        exact = {spec.name for spec in allocators() if spec.optimal}
        assert exact == {"optimal", "branch-and-bound"}
        assert get_allocator("optimal").max_apps == 10
        assert get_allocator("branch-and-bound").max_apps >= 20
        assert get_allocator("anneal").randomized
        assert not get_analysis_method("lower-bound").safe
        assert get_analysis_method("fixed-point").exact

    def test_solver_table_is_json_safe(self):
        table = solver_table()
        round_trip = json.loads(json.dumps(table))
        assert {spec["name"] for spec in round_trip["allocators"]} == set(
            allocator_names()
        )
        assert {spec["name"] for spec in round_trip["analysis_methods"]} == set(
            analysis_method_names()
        )

    def test_method_restriction_enforced(self, paper_apps):
        spec = AllocatorSpec(
            name="closed-form-only",
            func=lambda apps, method="closed-form": None,
            methods=("closed-form",),
        )
        with pytest.raises(SolverError, match="does not support analysis method"):
            spec(paper_apps, method="fixed-point")


class TestBranchAndBound:
    def test_matches_exhaustive_on_paper_set(self, paper_apps):
        assert allocate("branch-and-bound", paper_apps).slot_count == 3

    def test_reports_search_and_cache_stats(self, paper_apps):
        result = allocate("branch-and-bound", paper_apps)
        stats = result.stats
        assert stats["lower_bound"] <= stats["optimal_slot_count"]
        cache = stats["feasibility_cache"]
        assert cache["misses"] == cache["entries"]
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_lifts_the_exact_ceiling_past_exhaustive(self):
        apps = make_analyzed(
            [
                params(f"L{i}", r=60.0, deadline=6.0 + 0.1 * i, xi_m=1.1, xi_m_mono=1.4)
                for i in range(12)
            ]
        )
        with pytest.raises(InstanceTooLargeError, match="exponential"):
            allocate("optimal", apps)
        result = allocate("branch-and-bound", apps)
        assert result.all_schedulable()
        assert result.slot_count <= allocate("first-fit", apps).slot_count

    def test_respects_its_own_ceiling(self, paper_apps):
        with pytest.raises(InstanceTooLargeError, match="anneal"):
            allocate("branch-and-bound", paper_apps * 5)

    def test_infeasible_app_raises_domain_error(self):
        apps = make_analyzed(
            [params("A", 10.0, 0.2, xi_tt=0.3, xi_m=0.4, k_p=0.1, xi_m_mono=0.5)]
        )
        with pytest.raises(InfeasibleAllocationError, match="dedicated TT slot"):
            allocate("branch-and-bound", apps)

    def test_empty_instance(self):
        assert allocate("branch-and-bound", []).slot_count == 0


class TestAnneal:
    def test_feasible_and_never_worse_than_dedicated(self, paper_apps):
        result = allocate("anneal", paper_apps)
        assert result.all_schedulable()
        assert result.slot_count <= len(paper_apps)

    def test_deterministic_for_fixed_seed(self, paper_apps):
        first = allocate("anneal", paper_apps, seed=42)
        second = allocate("anneal", paper_apps, seed=42)
        assert first.slot_names == second.slot_names

    def test_matches_optimum_on_paper_set(self, paper_apps):
        assert allocate("anneal", paper_apps, seed=0).slot_count == 3

    def test_stats_record_schedule(self, paper_apps):
        stats = allocate("anneal", paper_apps, iterations=50).stats
        assert stats["iterations"] == 50
        assert stats["feasibility_cache"]["misses"] >= 1


class TestOversizedOptimalErrorPath:
    """Satellite: oversized exhaustive solves fail cleanly, not with a
    traceback — the error is a ValueError subclass the CLI maps to exit
    code 2 and the pipeline runner captures as a failed stage."""

    def test_raises_instance_too_large(self, paper_apps):
        with pytest.raises(InstanceTooLargeError, match="exponential"):
            allocate("optimal", paper_apps * 2, max_apps=10)
        assert issubclass(InstanceTooLargeError, ValueError)

    def test_study_marks_stage_failed_instead_of_crashing(self):
        spec = get_allocator("optimal")
        study = DesignStudy(
            Scenario(name="oversized", allocator="optimal")
        )
        # Shrink the ceiling below the paper roster to trigger the path
        # without fabricating an 11-app source.
        try:
            unregister_allocator("optimal")
            register_allocator(
                "optimal", optimal=True, complexity=spec.complexity, max_apps=2
            )(lambda apps, method="closed-form": spec.func(apps, method=method, max_apps=2))
            result = study.run()
        finally:
            unregister_allocator("optimal")
            register_allocator(
                "optimal",
                summary=spec.summary,
                optimal=spec.optimal,
                complexity=spec.complexity,
                max_apps=spec.max_apps,
            )(spec.func)
        assert not result.ok
        record = result.stage("allocate")
        assert record.status == "failed"
        assert "exponential" in record.detail


class TestScenarioRegistryValidation:
    def test_accepts_every_registered_allocator(self):
        for name in allocator_names():
            assert Scenario(name=f"s-{name}", allocator=name).allocator == name

    def test_accepts_every_registered_method(self):
        for name in analysis_method_names():
            assert Scenario(name=f"s-{name}", method=name).method == name

    def test_rejects_unknown_allocator_with_diagnostic(self):
        with pytest.raises(ValueError, match="registered allocators"):
            Scenario(name="x", allocator="quantum-fit")

    def test_rejects_unknown_method_with_diagnostic(self):
        with pytest.raises(ValueError, match="registered analysis methods"):
            Scenario(name="x", method="oracle")


class TestThirdPartyAllocatorEndToEnd:
    """A backend registered by a downstream package must run through
    DesignStudy with no pipeline changes (ISSUE 2 acceptance)."""

    def test_custom_backend_through_design_study(self):
        from repro.core.schedulability import is_slot_schedulable
        from repro.core.timing_params import priority_order

        @register_allocator(
            "next-fit",
            summary="only ever try the most recently opened slot",
            optimal=False,
            complexity="O(n) slot analyses",
        )
        def next_fit(apps, method="closed-form"):
            slots = []
            for app in priority_order(apps):
                if slots and is_slot_schedulable(slots[-1] + [app], method=method):
                    slots[-1].append(app)
                else:
                    require_fits_alone(app, method)
                    slots.append([app])
            return finalize_slots(slots, method)

        try:
            scenario = Scenario(
                name="third-party", source="paper", allocator="next-fit"
            )
            result = DesignStudy(scenario).run()
            assert result.ok
            artifact = result.artifact("allocate")
            assert artifact["allocator"] == "next-fit"
            assert artifact["allocator_capabilities"]["complexity"] == (
                "O(n) slot analyses"
            )
            assert artifact["all_schedulable"] is True
            # Next-fit cannot pack better than first-fit's 3 slots.
            assert artifact["slot_count"] >= 3
        finally:
            unregister_allocator("next-fit")

    def test_custom_analysis_method_through_analyze(self, paper_apps):
        from repro.core.schedulability import max_wait_closed_form

        @register_analysis_method(
            "padded", summary="closed form plus safety margin", bound="upper"
        )
        def padded(lower, higher):
            return 1.25 * max_wait_closed_form(lower, higher)

        try:
            subject, sharers = paper_apps[0], paper_apps[1:3]
            padded_result = analyze_application(subject, sharers, method="padded")
            plain = analyze_application(subject, sharers, method="closed-form")
            assert padded_result.max_wait == pytest.approx(1.25 * plain.max_wait)
        finally:
            unregister_analysis_method("padded")


class TestLowerBoundMethod:
    def test_bracket_around_fixed_point(self, paper_apps):
        subject, sharers = paper_apps[1], [paper_apps[0], paper_apps[2]]
        low = analyze_application(subject, sharers, method="lower-bound")
        exact = analyze_application(subject, sharers, method="fixed-point")
        high = analyze_application(subject, sharers, method="closed-form")
        assert low.max_wait <= exact.max_wait <= high.max_wait

    def test_usable_as_scenario_method(self):
        result = DesignStudy(
            Scenario(name="lb", source="paper", method="lower-bound")
        ).run()
        assert result.ok
        # The artifact must flag that these numbers cannot certify
        # deadlines (the lower bound is optimistic by construction).
        capabilities = result.artifact("allocate")["method_capabilities"]
        assert capabilities["safe"] is False
        assert capabilities["bound"] == "lower"


class TestFeasibilityCache:
    def test_hit_miss_accounting(self, paper_apps):
        cache = FeasibilityCache(paper_apps, "closed-form")
        key = frozenset({0, 1})
        first = cache.schedulable(key)
        second = cache.schedulable(key)
        assert first == second
        assert cache.hits == 1 and cache.misses == 1 and cache.entries == 1
        assert cache.hit_rate == pytest.approx(0.5)


class TestSolversCli:
    def test_text_listing(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "branch-and-bound" in out
        assert "Registered analysis methods" in out
        assert "lower-bound" in out

    def test_json_listing_round_trips(self, capsys):
        assert main(["solvers", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = {spec["name"] for spec in data["allocators"]}
        assert {"first-fit", "branch-and-bound", "anneal"} <= names
        assert all("optimal" in spec for spec in data["allocators"])

    def test_study_with_bnb_scenario(self, capsys):
        assert main(["study", "--scenario", "paper-table1-bnb"]) == 0
        out = capsys.readouterr().out
        assert "3 TT slots" in out
