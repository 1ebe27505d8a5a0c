"""Unit tests for repro.core.pwl."""

import numpy as np
import pytest

from repro.core.pwl import (
    DwellCurve,
    PwlDwellModel,
    conservative_monotonic,
    fit_concave_envelope,
    fit_conservative_monotonic,
    fit_two_segment,
    from_timing_parameters,
    two_segment,
)
from repro.core.timing_params import paper_application


class TestDwellCurve:
    def test_peak(self, humped_curve):
        k_p, xi_m = humped_curve.peak
        assert xi_m == pytest.approx(humped_curve.dwells.max())
        assert k_p in humped_curve.waits

    def test_xi_tt_is_zero_wait_dwell(self, humped_curve):
        assert humped_curve.xi_tt == humped_curve.dwells[0]

    def test_monotonicity_detection(self, humped_curve, monotone_curve):
        assert not humped_curve.is_monotonic()
        assert monotone_curve.is_monotonic()

    def test_requires_zero_first_wait(self):
        with pytest.raises(ValueError, match="zero-wait"):
            DwellCurve(waits=np.array([0.1, 0.2]), dwells=np.array([1.0, 0.5]), xi_et=1.0)

    def test_rejects_negative_dwells(self):
        with pytest.raises(ValueError, match="negative"):
            DwellCurve(waits=np.array([0.0, 0.1]), dwells=np.array([1.0, -0.1]), xi_et=1.0)

    @pytest.mark.parametrize(
        "waits, dwells",
        [
            ([0.0, 0.1], [1.0, np.nan]),
            ([0.0, np.inf], [1.0, 0.5]),
            ([0.0, 0.1], [np.inf, 0.5]),
        ],
    )
    def test_rejects_non_finite_samples(self, waits, dwells):
        # NaN slips past ``dwells < 0`` and inf past ``diff(waits) > 0``;
        # the fits would then fail with whichever error they hit first.
        with pytest.raises(ValueError, match="finite"):
            DwellCurve(waits=np.array(waits), dwells=np.array(dwells), xi_et=1.0)


class TestPwlDwellModel:
    def test_two_segment_evaluation(self):
        model = two_segment(xi_tt=0.5, k_p=1.0, xi_m=1.0, xi_et=3.0)
        assert model.dwell(0.0) == pytest.approx(0.5)
        assert model.dwell(0.5) == pytest.approx(0.75)
        assert model.dwell(1.0) == pytest.approx(1.0)
        assert model.dwell(2.0) == pytest.approx(0.5)
        assert model.dwell(3.0) == 0.0
        assert model.dwell(99.0) == 0.0

    def test_max_dwell_and_peak_wait(self):
        model = two_segment(xi_tt=0.5, k_p=1.0, xi_m=1.0, xi_et=3.0)
        assert model.max_dwell == pytest.approx(1.0)
        assert model.peak_wait == pytest.approx(1.0)

    def test_response_time(self):
        model = two_segment(xi_tt=0.5, k_p=1.0, xi_m=1.0, xi_et=3.0)
        assert model.response_time(2.0) == pytest.approx(2.5)

    def test_worst_response_monotone_for_gentle_slopes(self):
        # Second-segment slope -0.5 > -1: max response at max wait.
        model = two_segment(xi_tt=0.5, k_p=1.0, xi_m=1.0, xi_et=3.0)
        assert model.worst_response_time(2.0) == pytest.approx(2.5)

    def test_worst_response_catches_steep_falls(self):
        # Slope -2 < -1: the response peaks at the breakpoint, not the end.
        model = PwlDwellModel(breakpoints=((0.0, 1.0), (1.0, 2.0), (2.0, 0.0)))
        assert model.worst_response_time(1.8) == pytest.approx(3.0)

    def test_domination_check(self, humped_curve):
        fitted = fit_two_segment(humped_curve)
        assert fitted.dominates(humped_curve)
        lowered = PwlDwellModel(
            breakpoints=tuple((w, d * 0.5) for w, d in fitted.breakpoints)
        )
        assert not lowered.dominates(humped_curve)
        assert lowered.max_violation(humped_curve) > 0

    def test_rejects_single_breakpoint(self):
        with pytest.raises(ValueError):
            PwlDwellModel(breakpoints=((0.0, 1.0),))

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PwlDwellModel(breakpoints=((0.0, 1.0), (1.0, 0.5), (0.5, 0.2)))


class TestConstructors:
    def test_conservative_monotonic_shape(self):
        model = conservative_monotonic(xi_m_mono=2.0, xi_et=4.0)
        assert model.dwell(0.0) == pytest.approx(2.0)
        assert model.dwell(2.0) == pytest.approx(1.0)
        assert model.dwell(4.0) == 0.0
        assert model.label == "conservative-monotonic"

    def test_simple_monotonic_underestimates_peak(self):
        params = paper_application("C3")
        simple = from_timing_parameters(params, "simple-monotonic")
        non_mono = from_timing_parameters(params, "non-monotonic")
        assert simple.dwell(params.k_p) < non_mono.dwell(params.k_p)

    def test_from_timing_parameters_shapes(self):
        params = paper_application("C6")
        nm = from_timing_parameters(params, "non-monotonic")
        assert nm.max_dwell == pytest.approx(params.xi_m)
        assert nm.peak_wait == pytest.approx(params.k_p)
        cm = from_timing_parameters(params, "conservative-monotonic")
        assert cm.max_dwell == pytest.approx(params.xi_m_mono)
        with pytest.raises(ValueError, match="unknown shape"):
            from_timing_parameters(params, "cubic")

    def test_two_segment_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="xi_m"):
            two_segment(xi_tt=1.0, k_p=0.5, xi_m=0.5, xi_et=2.0)
        with pytest.raises(ValueError, match="k_p"):
            two_segment(xi_tt=0.5, k_p=3.0, xi_m=1.0, xi_et=2.0)


class TestFitting:
    def test_two_segment_fit_dominates(self, humped_curve):
        model = fit_two_segment(humped_curve)
        assert model.dominates(humped_curve)
        assert model.label == "non-monotonic"

    def test_two_segment_fit_is_tight_at_anchor(self, humped_curve):
        model = fit_two_segment(humped_curve)
        assert model.xi_tt == pytest.approx(humped_curve.xi_tt)

    def test_two_segment_fit_peak_at_measured_peak_wait(self, humped_curve):
        model = fit_two_segment(humped_curve)
        k_p, xi_m = humped_curve.peak
        assert model.peak_wait == pytest.approx(k_p)
        assert model.max_dwell >= xi_m

    def test_two_segment_fit_on_monotone_curve(self, monotone_curve):
        model = fit_two_segment(monotone_curve)
        assert model.dominates(monotone_curve)

    def test_conservative_fit_dominates(self, humped_curve):
        model = fit_conservative_monotonic(humped_curve)
        assert model.dominates(humped_curve)
        assert len(model.breakpoints) == 2

    def test_conservative_fit_above_two_segment_peak(self, humped_curve):
        mono = fit_conservative_monotonic(humped_curve)
        nm = fit_two_segment(humped_curve)
        # The monotone bound pays its conservatism at wait 0.
        assert mono.dwell(0.0) >= nm.dwell(0.0)

    def test_concave_envelope_dominates_and_is_tighter(self, humped_curve):
        envelope = fit_concave_envelope(humped_curve)
        mono = fit_conservative_monotonic(humped_curve)
        assert envelope.dominates(humped_curve)
        # Envelope never exceeds the single-line monotone bound.
        for wait in np.linspace(0, humped_curve.xi_et, 50):
            assert envelope.dwell(wait) <= mono.dwell(wait) + 1e-9

    def test_concave_envelope_is_concave(self, humped_curve):
        envelope = fit_concave_envelope(humped_curve)
        slopes = [
            (d1 - d0) / (w1 - w0)
            for (w0, d0), (w1, d1) in zip(envelope.breakpoints, envelope.breakpoints[1:])
        ]
        assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))
