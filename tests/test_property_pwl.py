"""Property-based tests for the PWL dwell models (hypothesis).

These pin the safety-critical invariants of Section III: fitted models
must dominate the measurement for *every* curve shape, not just the ones
we happened to measure.  They also pin the array evaluation path
(``dwell_array``, the dominance checks and the fits built on it) bit for
bit against a frozen copy of the scalar per-sample loops.
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pwl import (
    DwellCurve,
    PwlDwellModel,
    fit_concave_envelope,
    fit_conservative_monotonic,
    fit_two_segment,
    two_segment,
)
from repro.pipeline import DesignStudy, DwellCurveCache, get_scenario
from repro.pipeline.cache import ServoMeasurement, decode_entries, encode_entries
from repro.pipeline.registry import scenario_names
from repro.utils.validation import check_nonnegative


@st.composite
def dwell_curves(draw):
    """Arbitrary measured dwell curves: non-negative dwell samples over a
    strictly increasing wait grid starting at 0, ending near zero dwell."""
    n = draw(st.integers(min_value=4, max_value=40))
    period = draw(st.floats(min_value=0.005, max_value=0.1))
    dwells = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    # Anchor: zero-wait dwell must be positive (a pure-TT response exists).
    dwells[0] = draw(st.floats(min_value=0.05, max_value=10.0))
    dwells[-1] = 0.0
    waits = np.arange(n) * period
    xi_et = float(waits[-1]) + period
    return DwellCurve(waits=waits, dwells=np.asarray(dwells), xi_et=xi_et)


@st.composite
def ragged_dwell_curves(draw):
    """The shapes a uniform grid misses: non-uniform waits, plateaus and
    ties (dwells rounded to a coarse grid), the peak at wait 0 or at the
    last sample, two-sample curves, and ``xi_et`` below the last wait."""
    n = draw(st.integers(min_value=2, max_value=30))
    steps = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=n - 1, max_size=n - 1
        )
    )
    waits = np.concatenate(([0.0], np.cumsum(steps)))
    dwells = draw(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n)
    )
    if draw(st.booleans()):
        dwells = [round(d * 2.0) / 2.0 for d in dwells]
    dwells[0] = max(dwells[0], 0.05)
    peak = draw(st.sampled_from(["anywhere", "first", "last"]))
    if peak != "anywhere":
        dwells[0 if peak == "first" else -1] = max(dwells) + draw(
            st.sampled_from([0.0, 0.5, 1e-13])
        )
    xi_et = float(waits[-1]) * draw(st.floats(min_value=0.1, max_value=2.0))
    return DwellCurve(waits=waits, dwells=np.asarray(dwells), xi_et=xi_et)


any_curve = st.one_of(dwell_curves(), ragged_dwell_curves())


@st.composite
def models_near(draw, curve):
    """A random PWL model whose breakpoints often sit exactly on the
    curve's samples, so dominance verdicts go both ways; some dwells are
    ``-0.0``, which the clamp must turn into ``0.0`` as ``max`` does."""
    grid = curve.waits.tolist() + [float(curve.waits[-1]) * 1.5]
    extra = draw(st.lists(st.floats(min_value=1e-6, max_value=50.0), max_size=3))
    chosen = draw(
        st.lists(st.sampled_from(grid[1:]), min_size=1, max_size=4, unique=True)
    )
    waits = sorted({0.0, *chosen, *extra})
    dwells = []
    for w in waits:
        hits = np.flatnonzero(curve.waits == w)
        base = float(curve.dwells[hits[0]]) if hits.size else draw(
            st.floats(min_value=0.0, max_value=5.0)
        )
        scale = draw(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 1e-10, 2.0]))
        dwells.append(base * scale)
    return PwlDwellModel(breakpoints=tuple(zip(waits, dwells)))


# -- frozen scalar oracle ----------------------------------------------
# The per-sample loops the array path replaced, copied verbatim from the
# scalar implementation (``self`` is the model; the fits' self-checks call
# the oracle's ``dominates``).


def oracle_dwell(self, wait: float) -> float:
    wait = check_nonnegative(wait, "wait")
    points = self.breakpoints
    if wait >= points[-1][0]:
        return max(0.0, points[-1][1])
    for (w0, d0), (w1, d1) in zip(points, points[1:]):
        if wait <= w1:
            fraction = (wait - w0) / (w1 - w0)
            return max(0.0, d0 + fraction * (d1 - d0))
    raise AssertionError("unreachable: wait below last breakpoint not matched")


def oracle_dominates(self, curve: DwellCurve, tolerance: float = 1e-9) -> bool:
    return all(
        oracle_dwell(self, w) >= d - tolerance
        for w, d in zip(curve.waits, curve.dwells)
    )


def oracle_max_violation(self, curve: DwellCurve) -> float:
    return max(
        0.0,
        max(d - oracle_dwell(self, w) for w, d in zip(curve.waits, curve.dwells)),
    )


def oracle_fit_two_segment(curve: DwellCurve) -> PwlDwellModel:
    k_p, _ = curve.peak
    xi_tt = curve.xi_tt
    rising = [
        (w, d) for w, d in zip(curve.waits, curve.dwells) if 0.0 < w <= k_p
    ]
    if rising:
        slope1 = max((d - xi_tt) / w for w, d in rising)
        slope1 = max(slope1, 0.0)
    else:
        slope1 = 0.0
    if k_p == 0.0:
        k_p = float(curve.waits[1]) / 2.0
    xi_m = xi_tt + slope1 * k_p

    falling = [
        (w, d) for w, d in zip(curve.waits, curve.dwells) if w > k_p
    ]
    if falling:
        slope2 = max((d - xi_m) / (w - k_p) for w, d in falling)
        slope2 = min(slope2, -1e-12)
    else:
        slope2 = -xi_m / max(curve.xi_et - k_p, 1e-12)
    zero_crossing = k_p - xi_m / slope2
    xi_et = max(zero_crossing, curve.xi_et, k_p * (1 + 1e-9))
    model = PwlDwellModel(
        breakpoints=((0.0, xi_tt), (k_p, xi_m), (xi_et, 0.0)),
        label="non-monotonic",
    )
    if not oracle_dominates(model, curve):
        raise AssertionError(
            f"two-segment fit failed to dominate the curve "
            f"(violation={oracle_max_violation(model, curve):.3e})"
        )
    return model


def oracle_fit_conservative_monotonic(curve: DwellCurve) -> PwlDwellModel:
    xi_et = max(curve.xi_et, float(curve.waits[-1]) * (1 + 1e-9))
    intercepts = [
        d * xi_et / (xi_et - w)
        for w, d in zip(curve.waits, curve.dwells)
        if w < xi_et
    ]
    xi_m_mono = max(max(intercepts), curve.xi_tt)
    model = PwlDwellModel(
        breakpoints=((0.0, xi_m_mono), (xi_et, 0.0)),
        label="conservative-monotonic",
    )
    if not oracle_dominates(model, curve):
        raise AssertionError("conservative-monotonic fit failed to dominate")
    return model


def bits(values) -> bytes:
    """Bit pattern of a float or float sequence (signed zeros differ)."""
    return np.asarray(values, dtype=float).tobytes()


def probe_waits(model: PwlDwellModel, curve: DwellCurve) -> np.ndarray:
    """The curve's waits plus every breakpoint, midpoints and waits past
    the last breakpoint."""
    knots = np.array([w for w, _ in model.breakpoints])
    return np.concatenate(
        [curve.waits, knots, (knots[:-1] + knots[1:]) / 2.0, knots[-1] * np.array([1.5, 1e3])]
    )


def fit_outcome(fit, curve):
    """The fitted model, or the error a fit's own dominance check raised
    (a near-vertical line can round below a sample)."""
    try:
        return fit(curve)
    except AssertionError as exc:
        return str(exc)


class TestArrayPathMatchesScalarOracle:
    @given(curve=any_curve)
    @settings(max_examples=300, deadline=None)
    def test_fits_bitwise_equal(self, curve):
        for fit, oracle in (
            (fit_two_segment, oracle_fit_two_segment),
            (fit_conservative_monotonic, oracle_fit_conservative_monotonic),
        ):
            model, expected = fit_outcome(fit, curve), fit_outcome(oracle, curve)
            if isinstance(expected, str):
                assert model == expected
                continue
            assert model.label == expected.label
            assert bits(model.breakpoints) == bits(expected.breakpoints)
            assert model.dominates(curve) is oracle_dominates(expected, curve)
            assert bits(model.max_violation(curve)) == bits(
                oracle_max_violation(expected, curve)
            )

    @given(data=st.data(), curve=any_curve)
    @settings(max_examples=300, deadline=None)
    def test_random_models_bitwise_equal(self, data, curve):
        model = data.draw(models_near(curve))
        tolerance = data.draw(st.sampled_from([0.0, 1e-9, 1e-3]))
        assert model.dominates(curve, tolerance) is oracle_dominates(
            model, curve, tolerance
        )
        assert bits(model.max_violation(curve)) == bits(
            oracle_max_violation(model, curve)
        )
        waits = probe_waits(model, curve)
        assert bits(model.dwell_array(waits)) == bits(
            [oracle_dwell(model, w) for w in waits]
        )

    @given(curve=any_curve)
    @settings(max_examples=100, deadline=None)
    def test_dwell_array_on_fitted_breakpoints(self, curve):
        for model in (fit_outcome(fit_two_segment, curve), fit_concave_envelope(curve)):
            if isinstance(model, str):
                continue
            waits = probe_waits(model, curve)
            assert bits(model.dwell_array(waits)) == bits(
                [model.dwell(w) for w in waits]
            )

    @pytest.mark.parametrize("dwells", [[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, 0.0]])
    def test_signed_zero_ties_resolve_like_the_loops(self, dwells):
        # Python's max keeps the first of tied maxima, ndarray.max the last
        curve = DwellCurve(
            waits=np.arange(len(dwells)) * 0.5, dwells=np.array(dwells), xi_et=2.0
        )
        with np.errstate(invalid="ignore"):  # 0/0 zero crossing of a flat curve
            for fit, oracle in (
                (fit_two_segment, oracle_fit_two_segment),
                (fit_conservative_monotonic, oracle_fit_conservative_monotonic),
            ):
                assert bits(fit(curve).breakpoints) == bits(oracle(curve).breakpoints)

    def test_nan_interpolation_clamps_like_max(self):
        # an infinite breakpoint dwell interpolates to inf - inf = nan;
        # max(0.0, nan) is 0.0, where np.maximum would keep the nan
        model = PwlDwellModel(breakpoints=((0.0, np.inf), (1.0, 0.0), (2.0, np.inf)))
        waits = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        with np.errstate(invalid="ignore"):
            values = model.dwell_array(waits)
        assert bits(values) == bits([oracle_dwell(model, w) for w in waits])

    @pytest.mark.parametrize(
        "waits",
        [[np.nan], [0.5, np.inf], [-np.inf], [0.0, -1e-300, np.nan], [2.0, -3.0]],
    )
    def test_invalid_waits_raise_the_oracle_error(self, waits):
        model = two_segment(xi_tt=0.5, k_p=1.0, xi_m=1.0, xi_et=3.0)
        with pytest.raises(ValueError) as expected:
            [oracle_dwell(model, w) for w in np.asarray(waits)]
        with pytest.raises(ValueError) as raised:
            model.dwell_array(waits)
        assert str(raised.value) == str(expected.value)


class TestFitMemo:
    """``DwellCurve.fits`` is exact: its fits and verdicts equal a fresh
    fit and a fresh ``dominates`` bit for bit, on first access, on a
    repeat access and after the dwell cache's wire round trip."""

    @staticmethod
    def fresh(curve):
        """``[(model, verdict), ...]`` derived from scratch on a twin curve
        with its own arrays, or the error a fit's own check raised."""
        twin = DwellCurve(
            waits=curve.waits.copy(), dwells=curve.dwells.copy(), xi_et=curve.xi_et
        )
        derived = []
        for fit in (fit_two_segment, fit_conservative_monotonic):
            model = fit_outcome(fit, twin)
            if isinstance(model, str):
                return model
            derived.append((model, model.dominates(twin)))
        return derived

    @staticmethod
    def assert_same(fits, expected):
        memo = [
            (fits.non_monotonic, fits.non_monotonic_dominates),
            (fits.monotonic, fits.monotonic_dominates),
        ]
        for (model, verdict), (want, want_verdict) in zip(memo, expected):
            assert model.label == want.label
            assert bits(model.breakpoints) == bits(want.breakpoints)
            assert verdict is want_verdict

    @given(curve=any_curve)
    @settings(max_examples=200, deadline=None)
    def test_memo_equals_fresh_derivation(self, curve):
        expected = self.fresh(curve)
        if isinstance(expected, str):
            # nothing is memoised: every access raises the fit's error
            for _ in range(2):
                with pytest.raises(AssertionError) as raised:
                    _ = curve.fits
                assert str(raised.value) == expected
            return
        first = curve.fits
        self.assert_same(first, expected)
        assert curve.fits is first
        self.assert_same(curve.fits, expected)

        key = ("servo", None, 2, 400)
        measured = ServoMeasurement(
            curve=curve, xi_tt=curve.xi_tt, xi_et=curve.xi_et, period=0.01
        )
        source, target = DwellCurveCache(), DwellCurveCache()
        source.merge_entries({key: measured})
        target.merge_entries(decode_entries(encode_entries(source.export_entries())))
        travelled = target.servo_measurement(None, 2, 400).curve
        assert target.misses == 0 and travelled is not curve
        assert "fits" in vars(travelled)  # carried over, not refitted
        self.assert_same(travelled.fits, expected)

    def test_racing_first_reads_all_see_the_fresh_fits(self):
        # threads sharing one cached curve race on its first read
        waits = np.arange(2000) * 0.002
        dwells = 0.5 + waits * np.exp(-waits) * (1.0 + 0.1 * np.sin(40.0 * waits))
        curve = DwellCurve(waits=waits, dwells=dwells, xi_et=4.5)
        expected = self.fresh(curve)
        readers = 8
        start = threading.Barrier(readers)
        seen = []

        def read():
            start.wait(timeout=10.0)
            seen.append(curve.fits)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == readers
        for fits in seen:
            self.assert_same(fits, expected)
        assert any(curve.fits is fits for fits in seen)


def study_json(result):
    """A StudyResult as JSON minus ``elapsed`` and the characterize
    ``cache`` hit/miss block."""
    data = result.to_dict()
    data["provenance"] = {
        k: v for k, v in data["provenance"].items() if k != "elapsed"
    }
    for record in data["stages"]:
        del record["elapsed"]
        if record["name"] == "characterize":
            record["artifact"] = {
                k: v for k, v in record["artifact"].items() if k != "cache"
            }
    return json.dumps(data)


class TestFitMemoInStudies:
    def test_registered_scenarios_match_fresh_fits(self, monkeypatch):
        # memoised fits (cold, then warm) against fits and verdicts
        # derived afresh on every access, as every study once did
        cache = DwellCurveCache()
        runs = []
        for fresh in (False, False, True):
            if fresh:
                monkeypatch.setattr(DwellCurve, "fits", property(DwellCurve.fits.func))
            runs.append(
                [
                    study_json(DesignStudy(get_scenario(name), cache=cache).run())
                    for name in scenario_names()
                ]
            )
        assert runs[0] == runs[1] == runs[2]
        verdicts = [
            row["dominates_measurement"]
            for text in runs[0]
            for record in json.loads(text)["stages"]
            if record["name"] == "model"
            for row in record["artifact"].get("models", [])
        ]
        assert True in verdicts and None in verdicts


class TestFitDomination:
    @given(curve=dwell_curves())
    @settings(max_examples=150, deadline=None)
    def test_two_segment_fit_always_dominates(self, curve):
        model = fit_two_segment(curve)
        assert model.max_violation(curve) <= 1e-9

    @given(curve=dwell_curves())
    @settings(max_examples=150, deadline=None)
    def test_conservative_monotonic_fit_always_dominates(self, curve):
        model = fit_conservative_monotonic(curve)
        assert model.max_violation(curve) <= 1e-9

    @given(curve=dwell_curves())
    @settings(max_examples=150, deadline=None)
    def test_concave_envelope_always_dominates(self, curve):
        model = fit_concave_envelope(curve)
        assert model.max_violation(curve) <= 1e-9

    @given(curve=dwell_curves())
    @settings(max_examples=100, deadline=None)
    def test_envelope_never_looser_than_monotonic(self, curve):
        envelope = fit_concave_envelope(curve)
        mono = fit_conservative_monotonic(curve)
        grid = np.linspace(0.0, float(curve.waits[-1]), 31)
        assert all(envelope.dwell(w) <= mono.dwell(w) + 1e-6 for w in grid)


class TestModelEvaluation:
    @given(
        xi_tt=st.floats(min_value=0.01, max_value=5.0),
        k_p_frac=st.floats(min_value=0.05, max_value=0.9),
        peak_scale=st.floats(min_value=1.0, max_value=3.0),
        xi_et=st.floats(min_value=0.5, max_value=50.0),
        wait=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_dwell_never_negative_and_bounded(
        self, xi_tt, k_p_frac, peak_scale, xi_et, wait
    ):
        model = two_segment(
            xi_tt=xi_tt,
            k_p=k_p_frac * xi_et,
            xi_m=peak_scale * xi_tt,
            xi_et=xi_et,
        )
        dwell = model.dwell(wait)
        assert 0.0 <= dwell <= model.max_dwell + 1e-12

    @given(
        xi_tt=st.floats(min_value=0.01, max_value=5.0),
        k_p_frac=st.floats(min_value=0.05, max_value=0.9),
        peak_scale=st.floats(min_value=1.0, max_value=3.0),
        xi_et=st.floats(min_value=0.5, max_value=50.0),
        max_wait=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_worst_response_is_supremum(
        self, xi_tt, k_p_frac, peak_scale, xi_et, max_wait
    ):
        model = two_segment(
            xi_tt=xi_tt,
            k_p=k_p_frac * xi_et,
            xi_m=peak_scale * xi_tt,
            xi_et=xi_et,
        )
        worst = model.worst_response_time(max_wait)
        grid = np.linspace(0.0, max_wait, 51)
        empirical = max(w + model.dwell(w) for w in grid)
        assert worst >= empirical - 1e-9

    @given(
        xi_tt=st.floats(min_value=0.01, max_value=5.0),
        xi_et=st.floats(min_value=6.0, max_value=50.0),
        w1=st.floats(min_value=0.0, max_value=60.0),
        w2=st.floats(min_value=0.0, max_value=60.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_worst_response_monotone_in_wait(self, xi_tt, xi_et, w1, w2):
        model = two_segment(xi_tt=xi_tt, k_p=1.0, xi_m=2 * xi_tt, xi_et=xi_et)
        lo, hi = sorted((w1, w2))
        assert model.worst_response_time(lo) <= model.worst_response_time(hi) + 1e-9
