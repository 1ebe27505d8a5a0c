"""Tests for the E9/E10 validation experiments."""

import pytest

from repro.experiments import (
    run_bound_validation,
    run_pure_et_baseline,
    run_table1,
)


@pytest.fixture(scope="module")
def sim_apps():
    return run_table1(wait_step=4).simulated


class TestBoundValidation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_bound_validation(seeds=3, horizon=80.0, wait_step=4)

    def test_analysis_is_sound(self, result):
        """The central soundness claim: no simulated response exceeds the
        certified worst case."""
        assert result.sound()

    def test_every_app_reported(self, result, sim_apps):
        assert {row[0] for row in result.rows} == {a.name for a in sim_apps}

    def test_bounds_are_finite(self, result):
        for __, measured, bound in result.rows:
            assert bound < float("inf")
            assert measured <= bound + 1e-9

    def test_report_renders(self, result):
        assert "SOUND" in result.report()


class TestPureEtBaseline:
    @pytest.fixture(scope="class")
    def result(self):
        return run_pure_et_baseline(wait_step=4)

    def test_pure_et_misses_a_deadline(self, result):
        """The paper's premise: ET alone is not enough."""
        assert result.pure_et_misses

    def test_hybrid_meets_all_deadlines(self, result):
        assert result.hybrid_misses == []

    def test_hybrid_never_slower_than_pure_et(self, result):
        for __, pure, hybrid, _deadline in result.rows:
            assert hybrid <= pure + 1e-9

    def test_report_renders(self, result):
        text = result.report()
        assert "pure-ET deadline misses" in text
