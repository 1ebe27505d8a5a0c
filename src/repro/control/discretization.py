"""Zero-order-hold discretisation with intra-sample input delay.

Implements the classic Åström–Wittenmark construction used implicitly by
the paper's Eq. 1: sampling period ``h``, sensor-to-actuator delay
``d in [0, h]``, input held by a zero-order hold.  Over one sampling
interval the previous input ``u[k-1]`` is still applied during
``[t_k, t_k + d)`` and the new input ``u[k]`` during ``[t_k + d, t_{k+1})``,
which yields::

    Phi    = e^{A h}
    Gamma1 = e^{A (h - d)} * Integral_0^d e^{A s} ds * B      (old input)
    Gamma0 =                 Integral_0^{h-d} e^{A s} ds * B  (new input)

All matrix integrals are evaluated exactly with a single block-matrix
exponential (Van Loan's method), so the result is exact for LTI plants —
no Euler approximation anywhere.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from repro.control.lti import ContinuousStateSpace, DelayedStateSpace
from repro.utils.validation import check_in_range, check_positive


def zoh_integrals(a: np.ndarray, b: np.ndarray, tau: float):
    """Exact ``(e^{A tau}, Integral_0^tau e^{A s} ds B)`` via Van Loan.

    Builds the block matrix ``[[A, B], [0, 0]]``, exponentiates it, and
    reads off the two blocks.  Works for singular ``A`` (e.g. integrator
    chains), unlike formulas involving ``A^{-1}``.
    """
    n, m = b.shape
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a
    block[:n, n:] = b
    exp_block = expm(block * tau)
    return exp_block[:n, :n], exp_block[:n, n:]


def delayed_gammas(
    a: np.ndarray, b: np.ndarray, period: float, delay: float, gamma_full: np.ndarray
):
    """``(Gamma0, Gamma1)`` for sampling period ``h`` and input delay ``d``.

    ``gamma_full`` is the full-interval integral (the second block of
    ``zoh_integrals(a, b, h)``): all of it acts on the new input at
    ``d <= 0`` and on the old one at ``d >= h``.  In between, Gamma0
    integrates the new input over the trailing ``h - d`` of the
    interval, and Gamma1 propagates the leading ``d``-portion's integral
    forward by ``h - d``.
    """
    if delay <= 0.0:
        return gamma_full, np.zeros_like(gamma_full)
    if delay >= period:
        return np.zeros_like(gamma_full), gamma_full
    exp_trail, gamma0 = zoh_integrals(a, b, period - delay)
    _, gamma_lead = zoh_integrals(a, b, delay)
    return gamma0, exp_trail @ gamma_lead


def discretize(plant: ContinuousStateSpace, period: float) -> DelayedStateSpace:
    """Standard delay-free ZOH discretisation (``Gamma1 = 0``)."""
    return discretize_with_delay(plant, period=period, delay=0.0)


def discretize_with_delay(
    plant: ContinuousStateSpace, period: float, delay: float
) -> DelayedStateSpace:
    """Discretise ``plant`` with sampling period ``h`` and input delay ``d``.

    Parameters
    ----------
    plant:
        Continuous-time model.
    period:
        Sampling period ``h`` (seconds).
    delay:
        Sensor-to-actuator delay ``d`` (seconds), ``0 <= d <= h``.  The paper
        uses ``d ~ 0`` for TT communication and the worst-case bus delay
        (up to ``h``) for ET communication.

    Returns
    -------
    DelayedStateSpace
        The discrete model ``(Phi, Gamma0, Gamma1, C)`` of paper Eq. 1.
    """
    period = check_positive(period, "period")
    delay = check_in_range(delay, "delay", low=0.0, high=period)

    phi, gamma_full = zoh_integrals(plant.a, plant.b, period)
    gamma0, gamma1 = delayed_gammas(plant.a, plant.b, period, delay, gamma_full)
    return DelayedStateSpace(
        phi=phi,
        gamma0=gamma0,
        gamma1=gamma1,
        c=plant.c,
        period=period,
        delay=delay,
        name=plant.name,
    )


__all__ = ["delayed_gammas", "discretize", "discretize_with_delay", "zoh_integrals"]
