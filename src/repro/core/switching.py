"""Switched-system responses and dwell/wait curve measurement.

Paper Section III: after a disturbance the closed loop evolves with the
ET dynamics ``A1`` for ``kwait`` samples and with the TT dynamics ``A2``
afterwards (Eqs. 3-4)::

    x1[k]        = A1^k x0
    x2[kwait, k] = A2^k A1^kwait x0

The dwell time ``kdw(kwait)`` is how long the TT phase takes to bring the
plant-state norm at or below ``Eth``.  This module measures the full
``kwait -> kdw`` relation either from closed-loop matrices
(:class:`LinearSwitchedSystem`) or from any black-box response source
such as the nonlinear servo testbed (:func:`measure_dwell_curve`).

Every swept wait is independent of the others, so a response source is
*stacked*: it takes the whole array of candidate waits and answers them
in one pass.  :func:`per_wait_source` adapts a one-wait-at-a-time
callable to that interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.control.analysis import settling_time, settling_times
from repro.control.controller import SwitchedApplication
from repro.core.pwl import DwellCurve
from repro.utils.linalg import is_schur_stable
from repro.utils.validation import check_positive, check_square, check_vector, ensure_matrix


@dataclass(frozen=True)
class LinearSwitchedSystem:
    """The pair ``(A1, A2)`` with the threshold and sampling period.

    Attributes
    ----------
    a1:
        ET closed-loop matrix (active while waiting for the TT slot).
    a2:
        TT closed-loop matrix (active after the slot is granted).
    x0:
        Post-disturbance (augmented) state.
    threshold:
        Steady-state threshold ``Eth`` on the selected-state norm.
    period:
        Sampling period in seconds.
    norm_selector:
        Optional matrix selecting the plant states out of the augmented
        state before the norm is taken.
    """

    a1: np.ndarray
    a2: np.ndarray
    x0: np.ndarray
    threshold: float
    period: float
    norm_selector: Optional[np.ndarray] = None

    def __post_init__(self):
        a1 = check_square(self.a1, "a1")
        a2 = ensure_matrix(self.a2, "a2", rows=a1.shape[0], cols=a1.shape[0])
        x0 = check_vector(self.x0, "x0", size=a1.shape[0])
        check_positive(self.threshold, "threshold")
        check_positive(self.period, "period")
        selector = self.norm_selector
        if selector is not None:
            selector = ensure_matrix(selector, "norm_selector", cols=a1.shape[0])
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "norm_selector", selector)
        if not is_schur_stable(a1):
            raise ValueError("A1 (ET closed loop) must be Schur stable")
        if not is_schur_stable(a2):
            raise ValueError("A2 (TT closed loop) must be Schur stable")

    @classmethod
    def from_application(
        cls, app: SwitchedApplication, x0: np.ndarray
    ) -> "LinearSwitchedSystem":
        """Build from a designed :class:`SwitchedApplication`."""
        return cls(
            a1=app.a1,
            a2=app.a2,
            x0=app.initial_state(x0),
            threshold=app.threshold,
            period=app.period,
            norm_selector=app.plant_norm_selector(),
        )

    def state_after_wait(self, wait_samples: int) -> np.ndarray:
        """``A1^kwait x0`` — the state at the moment of switching (Eq. 3)."""
        if wait_samples < 0:
            raise ValueError(f"wait_samples must be non-negative, got {wait_samples}")
        return np.linalg.matrix_power(self.a1, wait_samples) @ self.x0

    def dwell_times(self, waits) -> np.ndarray:
        """``kdw(kwait)`` in seconds for every wait, in one stacked pass.

        The switch states ``A1^kwait x0`` form a ``(W, n)`` stack that the
        TT dynamics ``A2`` advance together (:func:`settling_times`).
        """
        stack = np.empty((len(waits), self.x0.size))
        for row, wait in zip(stack, waits):
            row[:] = self.state_after_wait(int(wait))
        return settling_times(
            self.a2,
            stack,
            self.threshold,
            norm_selector=self.norm_selector,
            period=self.period,
        )

    def dwell_time(self, wait_samples: int) -> float:
        """``kdw(kwait)`` in seconds: TT settling time from the switch state."""
        return float(self.dwell_times([wait_samples])[0])

    def response_time(self, wait_samples: int) -> float:
        """Total response ``xi = kwait + kdw(kwait)`` in seconds."""
        return wait_samples * self.period + self.dwell_time(wait_samples)

    def pure_tt_response(self) -> float:
        """``xi_TT``: settling time with TT communication from the start."""
        return self.dwell_time(0)

    def pure_et_response(self) -> float:
        """``xi_ET``: settling time when only ET communication is used."""
        return settling_time(
            self.a1,
            self.x0,
            self.threshold,
            norm_selector=self.norm_selector,
            period=self.period,
        )

    def response_source(self) -> "LinearSweep":
        """Stacked source for :func:`measure_dwell_curve` (see :class:`LinearSweep`)."""
        return LinearSweep(self)


class LinearSweep:
    """Total response times of a :class:`LinearSwitchedSystem` at any waits.

    Computes ``xi_ET`` once; calling it with an array of waits measures
    every TT dwell in one stacked pass (:meth:`LinearSwitchedSystem.dwell_times`).
    """

    def __init__(self, system: LinearSwitchedSystem):
        self.system = system
        self._xi_et = system.pure_et_response()

    def pure_et_response(self) -> float:
        """``xi_ET`` in seconds."""
        return self._xi_et

    def __call__(self, waits) -> np.ndarray:
        """Total response times (seconds) of the runs switched at ``waits``."""
        system = self.system
        waits = np.asarray(waits, dtype=int)
        responses = waits * system.period
        # Waits past the ET settling time need no TT dwell at all.
        pending = waits < int(round(self._xi_et / system.period))
        responses[pending] += system.dwell_times(waits[pending])
        return responses


def per_wait_source(
    response_time: Callable[[int], float]
) -> Callable[[np.ndarray], np.ndarray]:
    """Stack a one-wait-at-a-time black box for :func:`measure_dwell_curve`.

    ``response_time`` maps ``wait_samples`` to the *total* response time
    in seconds (wait + dwell); the adapter calls it once per wait.
    """

    def source(waits: np.ndarray) -> np.ndarray:
        return np.array([response_time(int(wait)) for wait in waits], dtype=float)

    return source


def measure_dwell_curve(
    response_source: Callable[[np.ndarray], np.ndarray],
    pure_et_response: float,
    period: float,
    wait_step: int = 1,
    max_wait: Optional[float] = None,
) -> DwellCurve:
    """Sweep the wait time and record the dwell/wait relation.

    Parameters
    ----------
    response_source:
        Stacked source: maps the integer array of swept ``wait_samples``
        to the *total* response time in seconds (wait + dwell) of each.
        :meth:`LinearSwitchedSystem.response_source` and
        :meth:`~repro.testbed.servo.ServoTestbed.response_source` answer
        all waits in one pass; wrap a per-wait callable with
        :func:`per_wait_source`.
    pure_et_response:
        ``xi_ET`` in seconds; the sweep stops there because later switches
        never use the TT slot.
    period:
        Sampling period in seconds.
    wait_step:
        Sweep stride in samples (1 = measure every sampling period).
    max_wait:
        Optional override for the sweep end (seconds).
    """
    check_positive(pure_et_response, "pure_et_response")
    check_positive(period, "period")
    if wait_step < 1:
        raise ValueError(f"wait_step must be >= 1, got {wait_step}")
    end = pure_et_response if max_wait is None else max_wait
    samples = np.arange(0, int(np.ceil(end / period)) + 1, wait_step)
    responses = np.asarray(response_source(samples), dtype=float)
    if responses.shape != samples.shape:
        raise ValueError(
            f"response_source returned shape {responses.shape} for "
            f"{samples.size} waits; wrap a per-wait callable with per_wait_source"
        )
    waits = samples * period
    return DwellCurve(
        waits=waits,
        dwells=np.maximum(0.0, responses - waits),
        xi_et=pure_et_response,
    )


__all__ = ["LinearSweep", "LinearSwitchedSystem", "measure_dwell_curve", "per_wait_source"]
