"""Integration tests for the experiment drivers (one per paper artefact).

The heavier drivers run with coarse sweep strides here; the benchmarks
exercise the full-resolution versions.
"""

import pytest

from repro.experiments import (
    run_fig3,
    run_fig4,
    run_fig5,
    run_fixed_point_ablation,
    run_paper_allocation,
    run_segment_ablation,
    run_simulation_allocation,
    run_table1,
    simulation_applications,
)


@pytest.fixture(scope="module")
def fig3_result():
    return run_fig3(wait_step=4)


@pytest.fixture(scope="module")
def sim_apps():
    return simulation_applications(wait_step=4)


class TestFig3:
    def test_tt_response_matches_paper(self, fig3_result):
        assert fig3_result.xi_tt == pytest.approx(0.68, abs=0.05)

    def test_et_response_matches_paper(self, fig3_result):
        assert fig3_result.xi_et == pytest.approx(2.16, abs=0.2)

    def test_non_monotonic(self, fig3_result):
        assert fig3_result.is_non_monotonic()

    def test_peak_is_interior(self, fig3_result):
        k_p, xi_m = fig3_result.curve.peak
        assert 0.0 < k_p < fig3_result.xi_et
        assert xi_m > fig3_result.xi_tt

    def test_report_renders(self, fig3_result):
        text = fig3_result.report()
        assert "xi_TT" in text and "Figure 3" in text


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self, fig3_result):
        return run_fig4(curve=fig3_result.curve)

    def test_safe_models_dominate(self, result):
        assert result.non_monotonic.dominates(result.curve)
        assert result.conservative_monotonic.dominates(result.curve)
        assert result.concave_envelope.dominates(result.curve)

    def test_simple_monotonic_is_unsafe(self, result):
        """The paper's warning: the simple model underestimates dwell."""
        assert not result.simple.dominates(result.curve)

    def test_non_monotonic_tighter_than_monotonic(self, result):
        assert result.tightness_gap() > 0

    def test_envelope_at_least_as_tight(self, result):
        for wait in result.curve.waits:
            assert (
                result.concave_envelope.dwell(wait)
                <= result.non_monotonic.dwell(wait) + 1e-9
            )


class TestTable1:
    def test_paper_mode_verbatim(self):
        result = run_table1(include_simulation=False)
        assert len(result.paper) == 6
        report = result.paper_report()
        assert "C3" in report and "0.390" in report

    def test_simulation_mode(self, sim_apps):
        from repro.experiments.table1 import Table1Result

        result = Table1Result(paper=list(run_table1(include_simulation=False).paper), simulated=sim_apps)
        report = result.report()
        assert "servo-rig" in report
        for app in sim_apps:
            assert app.params.xi_tt <= app.params.xi_et


class TestAllocation:
    def test_paper_mode_exact(self):
        comparison = run_paper_allocation()
        assert comparison.non_monotonic.slot_count == 3
        assert comparison.monotonic.slot_count == 5
        assert comparison.extra_resource_fraction == pytest.approx(2 / 3)
        assert comparison.optimal.slot_count == 3

    def test_fixed_point_method_never_worse(self):
        exact = run_paper_allocation(method="fixed-point")
        closed = run_paper_allocation(method="closed-form")
        assert exact.non_monotonic.slot_count <= closed.non_monotonic.slot_count

    def test_simulation_mode_shows_same_direction(self, sim_apps):
        comparison = run_simulation_allocation(applications=sim_apps)
        assert (
            comparison.non_monotonic.slot_count < comparison.monotonic.slot_count
        )
        assert comparison.non_monotonic.all_schedulable()
        assert comparison.monotonic.all_schedulable()


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, sim_apps):
        return run_fig5(applications=sim_apps)

    def test_all_deadlines_met(self, result):
        assert result.all_deadlines_met()

    def test_every_app_rejected_its_disturbance(self, result):
        for row in result.trace.summary_rows():
            # At least the t=0 disturbance episode; brief threshold
            # re-crossings may add short extra episodes (the runtime has
            # no hysteresis, exactly like the paper's scheme).
            assert len(row["responses"]) >= 1
            assert row["responses"][0] == row["worst_response"] or all(
                r <= row["deadline"] for r in row["responses"]
            )

    def test_report_renders(self, result):
        text = result.report(plots=True)
        assert "Figure 5" in text
        assert "servo-rig" in text

    def test_analytic_network_variant(self, sim_apps):
        result = run_fig5(applications=sim_apps, use_flexray=False)
        assert result.all_deadlines_met()


class TestAblations:
    def test_segment_ablation_ordering(self, sim_apps):
        result = run_segment_ablation(applications=sim_apps)
        assert (
            result.slot_counts["concave-envelope"]
            <= result.slot_counts["two-segment"]
            <= result.slot_counts["conservative-monotonic"]
        )
        assert (
            result.mean_dwell_bounds["concave-envelope"]
            <= result.mean_dwell_bounds["two-segment"] + 1e-9
        )

    def test_fixed_point_ablation_bounds(self):
        result = run_fixed_point_ablation(samples=20, seed=3)
        assert result.mean_gap >= 0.0
        assert result.max_gap >= result.mean_gap

    def test_jitter_ablation(self, sim_apps):
        from repro.experiments import run_jitter_ablation

        result = run_jitter_ablation(applications=sim_apps, horizon=15.0)
        assert result.equalized_misses == 0
        for name, equalized in result.equalized.items():
            assert result.raw[name] >= equalized - 1e-9
        assert "equalisation" in result.report()

    def test_kernel_ablation_covers_the_flexray_subject(self):
        from repro.experiments import run_kernel_ablation

        result = run_kernel_ablation(
            wait_step=16, horizon=4.0, scenario="fig5-cosim"
        )
        assert result.scenario.startswith("fig5-cosim")
        assert result.traces_identical
        assert result.apps > 0 and result.samples > 0
        assert "fig5-cosim" in result.report()

    def test_kernel_ablation_pairs_trials_in_alternating_order(self, monkeypatch):
        import repro.pipeline as pipeline
        from repro.experiments import run_kernel_ablation

        order = []

        class RecordingStudy(pipeline.DesignStudy):
            def run(self):
                order.append(self.scenario.kernel)
                return super().run()

        monkeypatch.setattr(pipeline, "DesignStudy", RecordingStudy)
        result = run_kernel_ablation(wait_step=16, horizon=2.0, repeats=3)
        assert order == ["event", "auto", "auto", "event", "event", "auto"]
        assert len(result.pair_ratios) == 3
        assert result.batch_speedup_vs_event == sorted(result.pair_ratios)[1]
        assert result.traces_identical
