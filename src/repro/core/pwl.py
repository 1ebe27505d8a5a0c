"""Piecewise-linear dwell-time models (paper Section III, Figure 4).

The relation between the wait time ``kwait`` (time spent in ET mode after
a disturbance) and the dwell time ``kdw`` (time subsequently needed on
the TT slot) is measured pointwise and then *upper-bounded* by a
piecewise-linear (PWL) model.  The paper compares three shapes:

* **non-monotonic** (the contribution): two segments
  ``(0, xi_tt) -> (k_p, xi_m) -> (xi_et, 0)``, rising then falling;
* **conservative monotonic** (prior work, safe): one segment
  ``(0, xi_m_mono) -> (xi_et, 0)`` dominating the measurement;
* **simple monotonic** (prior work, unsafe): one segment
  ``(0, xi_tt) -> (xi_et, 0)``, which *underestimates* real dwell times
  and may therefore produce deadline violations.

Every model used for schedulability must dominate the measured curve
(Figure 4's "the actual curve must be entirely below the model");
the fitting constructors in this module guarantee that by construction
and :meth:`PwlDwellModel.dominates` verifies it.  A measured curve
keeps both fits and their verdicts (:attr:`DwellCurve.fits`), so a
cached measurement is fitted once, not once per study.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class DwellCurve:
    """A measured dwell/wait relation.

    Attributes
    ----------
    waits:
        Wait times (seconds), strictly increasing, starting at 0.
    dwells:
        Measured dwell times (seconds) for each wait time.
    xi_et:
        Pure-ET response time (the wait beyond which no TT dwell is
        needed at all).
    """

    waits: np.ndarray
    dwells: np.ndarray
    xi_et: float

    def __post_init__(self):
        waits = np.asarray(self.waits, dtype=float)
        dwells = np.asarray(self.dwells, dtype=float)
        if waits.ndim != 1 or dwells.shape != waits.shape:
            raise ValueError("waits and dwells must be 1-D arrays of equal length")
        if waits.size < 2:
            raise ValueError("a dwell curve needs at least two samples")
        if waits[0] != 0.0:
            raise ValueError("the dwell curve must include the zero-wait sample")
        if not (np.all(np.isfinite(waits)) and np.all(np.isfinite(dwells))):
            raise ValueError("waits and dwells must be finite")
        if not np.all(np.diff(waits) > 0):
            raise ValueError("waits must be strictly increasing")
        if np.any(dwells < 0):
            raise ValueError("dwell times cannot be negative")
        check_positive(self.xi_et, "xi_et")
        object.__setattr__(self, "waits", waits)
        object.__setattr__(self, "dwells", dwells)

    @property
    def xi_tt(self) -> float:
        """Zero-wait dwell, i.e. the pure-TT response time."""
        return float(self.dwells[0])

    @property
    def peak(self) -> Tuple[float, float]:
        """``(k_p, xi_m)`` — wait and value of the largest measured dwell.

        Plateau ties resolve to the *last* maximal sample so the falling
        segment of a fitted model starts after the plateau (otherwise the
        fit would need a near-zero second slope and an absurd zero
        crossing to dominate the flat region).
        """
        dwells = self.dwells
        index = int(np.flatnonzero(dwells >= dwells.max() - 1e-12)[-1])
        return float(self.waits[index]), float(self.dwells[index])

    def is_monotonic(self, tolerance: float = 1e-9) -> bool:
        """Whether the measured dwell never increases with the wait time."""
        return bool(np.all(np.diff(self.dwells) <= tolerance))

    @cached_property
    def fits(self) -> "CurveFits":
        """Both PWL fits of this curve and their dominance verdicts.

        They are pure functions of the samples, so they are derived on
        first use and then kept in the instance dict.  That puts them in
        the curve's pickled state too, so they travel with the dwell
        cache's exports and the fabric's cache blob.  The memo relies on
        nothing writing ``waits`` or ``dwells`` after construction; no
        code does.
        """
        non_monotonic = fit_two_segment(self)
        monotonic = fit_conservative_monotonic(self)
        return CurveFits(
            non_monotonic=non_monotonic,
            monotonic=monotonic,
            non_monotonic_dominates=non_monotonic.dominates(self),
            monotonic_dominates=monotonic.dominates(self),
        )


@dataclass(frozen=True)
class PwlDwellModel:
    """Piecewise-linear dwell model ``kdw = f(kwait)``.

    Breakpoints are ``(wait, dwell)`` pairs with strictly increasing
    waits; between breakpoints the model interpolates linearly, beyond
    the last breakpoint the dwell is 0 (the disturbance has been fully
    rejected in ET mode), and the model is clamped at 0 from below.

    :meth:`dwell` evaluates one wait; :meth:`dwell_array` evaluates many
    at once with the same float operations, so its values are bitwise
    equal to the scalar ones (the dominance checks and the fits use it).
    """

    breakpoints: Tuple[Tuple[float, float], ...]
    label: str = "pwl"

    def __post_init__(self):
        points = tuple((float(w), float(d)) for w, d in self.breakpoints)
        if len(points) < 2:
            raise ValueError("a PWL model needs at least two breakpoints")
        waits = [w for w, _ in points]
        if waits[0] != 0.0:
            raise ValueError("the first breakpoint must be at wait 0")
        if any(b >= a for b, a in zip(waits, waits[1:])):
            raise ValueError("breakpoint waits must be strictly increasing")
        if any(d < 0 for _, d in points):
            raise ValueError("breakpoint dwells cannot be negative")
        object.__setattr__(self, "breakpoints", points)

    @property
    def xi_tt(self) -> float:
        """Modelled zero-wait dwell."""
        return self.breakpoints[0][1]

    @property
    def xi_et(self) -> float:
        """Wait beyond which the modelled dwell is zero."""
        return self.breakpoints[-1][0]

    @property
    def max_dwell(self) -> float:
        """Largest modelled dwell ``xi_m`` (attained at a breakpoint)."""
        return max(d for _, d in self.breakpoints)

    @property
    def peak_wait(self) -> float:
        """Wait time ``k_p`` at which :attr:`max_dwell` is attained.

        Ties (flat-topped models) resolve to the latest such breakpoint so
        a degenerate fit on a monotone curve still reports a positive
        ``k_p``.
        """
        return max(self.breakpoints, key=lambda p: (p[1], p[0]))[0]

    def dwell(self, wait: float) -> float:
        """Modelled dwell time for a given wait time (seconds)."""
        wait = check_nonnegative(wait, "wait")
        points = self.breakpoints
        if wait >= points[-1][0]:
            return max(0.0, points[-1][1])
        for (w0, d0), (w1, d1) in zip(points, points[1:]):
            if wait <= w1:
                fraction = (wait - w0) / (w1 - w0)
                return max(0.0, d0 + fraction * (d1 - d0))
        raise AssertionError("unreachable: wait below last breakpoint not matched")

    def dwell_array(self, waits) -> np.ndarray:
        """:meth:`dwell` at every wait of an array, bitwise equal to it.

        Each wait takes the first segment whose right end it does not
        exceed and the scalar path's ``d0 + fraction * (d1 - d0)``; waits
        at or past the last breakpoint take its dwell.  The clamp keeps
        ``value`` only where ``value > 0.0``, which is what
        ``max(0.0, value)`` returns (``np.maximum`` would keep a NaN, and
        ``np.interp`` rounds differently).  Invalid waits raise the
        scalar path's :class:`ValueError`.  The segment search needs
        breakpoint waits without NaN, which every fit of a curve with a
        positive zero-wait dwell provides.
        """
        waits = np.asarray(waits, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(waits) & (waits >= 0.0)))
        if bad.size:
            check_nonnegative(waits.flat[bad[0]], "wait")  # raises
        w, d = np.array(self.breakpoints).T
        value = np.full(waits.shape, d[-1])
        inside = waits < w[-1]
        x = waits[inside]
        j = np.searchsorted(w[1:], x, side="left")
        fraction = (x - w[j]) / (w[j + 1] - w[j])
        value[inside] = d[j] + fraction * (d[j + 1] - d[j])
        return np.where(value > 0.0, value, 0.0)

    def response_time(self, wait: float) -> float:
        """Total response time ``xi = kwait + kdw`` for a given wait."""
        return wait + self.dwell(wait)

    def worst_response_time(self, max_wait: float) -> float:
        """``max over w in [0, max_wait] of (w + dwell(w))``.

        For the paper's two-segment model with second-segment gradient in
        ``(-1, 0)`` this maximum is attained at ``max_wait`` itself, but
        evaluating the supremum over the whole interval keeps the analysis
        safe for arbitrary (e.g. many-segment) models whose segments may
        fall faster than -1.
        """
        max_wait = check_nonnegative(max_wait, "max_wait")
        # Piecewise-linear w + dwell(w) attains its max at a breakpoint or
        # at the right edge of the interval.
        candidates = [max_wait]
        candidates.extend(w for w, _ in self.breakpoints if w <= max_wait)
        return max(w + self.dwell(w) for w in candidates)

    def dominates(self, curve: DwellCurve, tolerance: float = 1e-9) -> bool:
        """Whether the model upper-bounds every sample of ``curve``.

        This is the safety requirement of Figure 4: using a model below
        the measurement could certify deadlines that the real system
        misses.
        """
        return bool(
            np.all(self.dwell_array(curve.waits) >= curve.dwells - tolerance)
        )

    def max_violation(self, curve: DwellCurve) -> float:
        """Largest amount by which a sample exceeds the model (0 if none)."""
        return max(0.0, (curve.dwells - self.dwell_array(curve.waits)).max())


@dataclass(frozen=True)
class CurveFits:
    """The two fitted upper bounds of one curve (:attr:`DwellCurve.fits`).

    Each ``*_dominates`` flag is that model's :meth:`PwlDwellModel.dominates`
    on the curve, evaluated once rather than inferred from the fit.
    """

    non_monotonic: PwlDwellModel
    monotonic: PwlDwellModel
    non_monotonic_dominates: bool
    monotonic_dominates: bool


def two_segment(xi_tt: float, k_p: float, xi_m: float, xi_et: float) -> PwlDwellModel:
    """The paper's non-monotonic model from its four parameters."""
    _check_shape(xi_tt, k_p, xi_m, xi_et)
    return PwlDwellModel(
        breakpoints=((0.0, xi_tt), (k_p, xi_m), (xi_et, 0.0)),
        label="non-monotonic",
    )


def conservative_monotonic(xi_m_mono: float, xi_et: float) -> PwlDwellModel:
    """Prior work's safe monotonic model: a line from ``xi'M`` to zero."""
    check_positive(xi_m_mono, "xi_m_mono")
    check_positive(xi_et, "xi_et")
    return PwlDwellModel(
        breakpoints=((0.0, xi_m_mono), (xi_et, 0.0)),
        label="conservative-monotonic",
    )


def simple_monotonic(xi_tt: float, xi_et: float) -> PwlDwellModel:
    """Prior work's unsafe monotonic model: a line from ``xi_TT`` to zero.

    Included for comparison only — it generally *under*-estimates dwell
    times (paper Fig. 4) and must not be used for deadline guarantees.
    """
    check_positive(xi_tt, "xi_tt")
    check_positive(xi_et, "xi_et")
    return PwlDwellModel(
        breakpoints=((0.0, xi_tt), (xi_et, 0.0)),
        label="simple-monotonic",
    )


def from_timing_parameters(params, shape: str = "non-monotonic") -> PwlDwellModel:
    """Build a model from :class:`~repro.core.timing_params.TimingParameters`.

    Parameters
    ----------
    params:
        Timing parameters (e.g. a Table I row).
    shape:
        ``"non-monotonic"``, ``"conservative-monotonic"``, or
        ``"simple-monotonic"``.
    """
    if shape == "non-monotonic":
        return two_segment(params.xi_tt, params.k_p, params.xi_m, params.xi_et)
    if shape == "conservative-monotonic":
        return conservative_monotonic(params.xi_m_mono, params.xi_et)
    if shape == "simple-monotonic":
        return simple_monotonic(params.xi_tt, params.xi_et)
    raise ValueError(
        f"unknown shape {shape!r}; expected 'non-monotonic', "
        "'conservative-monotonic', or 'simple-monotonic'"
    )


def fit_two_segment(curve: DwellCurve) -> PwlDwellModel:
    """Fit the paper's two-segment model as a guaranteed upper bound.

    Construction:

    1. the first segment is anchored at ``(0, xi_tt)``; its slope is the
       steepest chord from the anchor to any sample at or before the
       measured peak, so it dominates the rising phase;
    2. the peak of the model is the first segment evaluated at the
       measured peak wait ``k_p`` (>= the measured peak dwell);
    3. the second segment is anchored at the model peak; its slope is the
       shallowest decline that still dominates every later sample, and it
       is extended to its zero crossing (>= the measured ``xi_et``).
    """
    k_p, _ = curve.peak
    xi_tt = curve.xi_tt
    waits, dwells = curve.waits, curve.dwells
    rising = (waits > 0.0) & (waits <= k_p)
    if rising.any():
        slope1 = _first_max((dwells[rising] - xi_tt) / waits[rising])
        slope1 = max(slope1, 0.0)
    else:
        slope1 = 0.0
    if k_p == 0.0:
        # Monotone-decreasing measurement: degrade to a single falling
        # segment anchored at (0, xi_tt); keep a tiny rising knee so the
        # model still has the two-segment shape.
        k_p = float(curve.waits[1]) / 2.0
    xi_m = xi_tt + slope1 * k_p

    falling = waits > k_p
    if falling.any():
        slope2 = _first_max((dwells[falling] - xi_m) / (waits[falling] - k_p))
        slope2 = min(slope2, -1e-12)
    else:
        slope2 = -xi_m / max(curve.xi_et - k_p, 1e-12)
    zero_crossing = k_p - xi_m / slope2
    xi_et = max(zero_crossing, curve.xi_et, k_p * (1 + 1e-9))
    model = PwlDwellModel(
        breakpoints=((0.0, xi_tt), (k_p, xi_m), (xi_et, 0.0)),
        label="non-monotonic",
    )
    if not model.dominates(curve):  # pragma: no cover - guaranteed by construction
        raise AssertionError(
            f"two-segment fit failed to dominate the curve "
            f"(violation={model.max_violation(curve):.3e})"
        )
    return model


def fit_conservative_monotonic(curve: DwellCurve) -> PwlDwellModel:
    """Fit prior work's conservative monotonic line as an upper bound.

    The line runs from ``(0, xi'M)`` to ``(xi_et, 0)``; ``xi'M`` is the
    smallest intercept for which the line dominates every sample.
    """
    xi_et = max(curve.xi_et, float(curve.waits[-1]) * (1 + 1e-9))
    below = curve.waits < xi_et
    intercepts = (curve.dwells[below] * xi_et) / (xi_et - curve.waits[below])
    xi_m_mono = max(_first_max(intercepts), curve.xi_tt)
    model = PwlDwellModel(
        breakpoints=((0.0, xi_m_mono), (xi_et, 0.0)),
        label="conservative-monotonic",
    )
    if not model.dominates(curve):  # pragma: no cover - guaranteed by construction
        raise AssertionError("conservative-monotonic fit failed to dominate")
    return model


def fit_concave_envelope(curve: DwellCurve) -> PwlDwellModel:
    """Upper concave envelope of the samples (the many-segment extension).

    Section III notes the relation "may be modeled with three or more
    piecewise linear curves, to be closer to the actual behavior"; the
    concave majorant is the tightest PWL upper bound whose response time
    remains easy to reason about.  The envelope is extended to a zero
    crossing at or beyond the measured ``xi_et``.
    """
    points = list(zip(curve.waits.tolist(), curve.dwells.tolist()))
    xi_et = max(curve.xi_et, float(curve.waits[-1]) * (1 + 1e-9))
    points.append((xi_et, 0.0))
    hull = _upper_concave_hull(points)
    return PwlDwellModel(breakpoints=tuple(hull), label="concave-envelope")


def _first_max(values: np.ndarray):
    """``max(values)`` as Python computes it on NaN-free values: the first
    maximal element, so a ``-0.0``/``0.0`` tie resolves as a loop would."""
    return values[int(np.argmax(values))]


def _upper_concave_hull(points: Sequence[Tuple[float, float]]):
    """Upper hull (concave majorant) of points sorted by x."""
    points = sorted(points)
    hull: list = []
    for point in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], point) >= 0:
            hull.pop()
        hull.append(point)
    return hull


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _check_shape(xi_tt: float, k_p: float, xi_m: float, xi_et: float) -> None:
    check_positive(xi_tt, "xi_tt")
    check_positive(k_p, "k_p")
    check_positive(xi_m, "xi_m")
    check_positive(xi_et, "xi_et")
    if xi_m < xi_tt:
        raise ValueError(f"xi_m ({xi_m}) must be >= xi_tt ({xi_tt})")
    if not k_p < xi_et:
        raise ValueError(f"k_p ({k_p}) must be smaller than xi_et ({xi_et})")


__all__ = [
    "CurveFits",
    "DwellCurve",
    "PwlDwellModel",
    "conservative_monotonic",
    "fit_concave_envelope",
    "fit_conservative_monotonic",
    "fit_two_segment",
    "from_timing_parameters",
    "simple_monotonic",
    "two_segment",
]
