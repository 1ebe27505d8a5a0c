"""Pole-placement design of mode controllers.

The LQR designs in :mod:`repro.control.dare` cannot place closed-loop
poles slower than the expensive-control limit (the stable mirror of any
unstable plant pole).  The paper's measured ET loop is deliberately
low-bandwidth — its response time is ~3x the TT loop's — so the servo
testbed uses explicit pole placement for the ET mode.  This module wraps
``scipy.signal.place_poles`` to produce the same :class:`ModeController`
objects as the LQR path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.control.controller import ModeController
from repro.control.discretization import discretize_with_delay
from repro.control.lti import ContinuousStateSpace
from repro.utils.linalg import is_schur_stable
from repro.utils.validation import check_in_range, check_positive


class PolePlacementError(RuntimeError):
    """Raised when the requested pole set cannot be placed."""


def place_gain(a: np.ndarray, b: np.ndarray, poles: Sequence[complex]) -> np.ndarray:
    """Feedback gain ``K`` so that ``A - B K`` has the requested poles.

    Poles must be conjugate-closed and strictly inside the unit circle.
    """
    # Imported here: scipy.signal pulls in scipy.stats, .interpolate and
    # .optimize, which only the servo rig's ET design needs.
    from scipy.signal import place_poles

    poles = np.asarray(poles, dtype=complex)
    if poles.size != np.asarray(a).shape[0]:
        raise PolePlacementError(
            f"need exactly {np.asarray(a).shape[0]} poles, got {poles.size}"
        )
    if np.max(np.abs(poles)) >= 1.0:
        raise PolePlacementError("all placed poles must lie inside the unit circle")
    if not np.allclose(np.sort_complex(poles), np.sort_complex(poles.conj())):
        raise PolePlacementError("pole set must be closed under conjugation")
    try:
        result = place_poles(np.asarray(a, float), np.asarray(b, float), poles)
    except ValueError as exc:
        raise PolePlacementError(f"pole placement failed: {exc}") from exc
    return np.asarray(result.gain_matrix)


def design_mode_controller_poles(
    plant: ContinuousStateSpace,
    period: float,
    delay: float,
    poles: Sequence[complex],
) -> ModeController:
    """Design a mode controller by placing augmented closed-loop poles.

    The plant is discretised with the mode delay, lifted to the augmented
    state ``z = [x; u_prev]``, and a static gain on ``z`` is computed so
    the closed loop has exactly ``poles`` (one pole per augmented state).

    Raises
    ------
    PolePlacementError
        If the poles are infeasible or the resulting loop is not Schur
        stable (numerical failure).
    """
    period = check_positive(period, "period")
    delay = check_in_range(delay, "delay", low=0.0, high=period)
    discrete = discretize_with_delay(plant, period=period, delay=delay)
    augmented = discrete.augmented()
    gain = place_gain(augmented.a, augmented.b, poles)
    closed_loop = augmented.closed_loop(gain)
    if not is_schur_stable(closed_loop):  # pragma: no cover - placement guarantees
        raise PolePlacementError("placed closed loop is not Schur stable")
    return ModeController(plant=discrete, gain=gain, closed_loop=closed_loop)


__all__ = ["PolePlacementError", "design_mode_controller_poles", "place_gain"]
