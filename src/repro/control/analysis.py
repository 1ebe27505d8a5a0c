"""Transient analysis of closed-loop trajectories.

The central quantity throughout the paper is the *settling time*: the
first instant after which the plant-state norm stays at or below the
threshold ``Eth`` forever.  :func:`settling_times` computes it robustly
for autonomous linear systems by simulating past the last threshold
crossing and verifying the tail is genuinely settled, for a whole stack
of initial states at once; :func:`settling_time` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.control.lti import simulate_autonomous
from repro.utils.linalg import is_schur_stable, spectral_radius, state_norms
from repro.utils.validation import check_positive, check_square, check_vector, ensure_matrix


class SettlingError(RuntimeError):
    """Raised when a trajectory cannot be shown to settle."""


def settle_index(norms: np.ndarray, threshold: float) -> Optional[int]:
    """First index ``k`` with ``norms[j] <= threshold`` for all ``j >= k``.

    Returns ``None`` when the trajectory ends above the threshold (no
    settled tail exists within the data).
    """
    norms = np.asarray(norms, dtype=float)
    threshold = check_positive(threshold, "threshold")
    above = np.flatnonzero(norms > threshold)
    if above.size == 0:
        return 0
    last_above = int(above[-1])
    if last_above == norms.size - 1:
        return None
    return last_above + 1


def settling_time(
    a: np.ndarray,
    x0: np.ndarray,
    threshold: float,
    norm_selector: Optional[np.ndarray] = None,
    period: float = 1.0,
    max_steps: int = 200_000,
    tail_margin: float = 10.0,
) -> float:
    """Settling time of ``x[k+1] = A x[k]`` in seconds.

    Simulates until the selected-state norm has decayed ``tail_margin``
    times below ``threshold`` (doubling the horizon as needed), then finds
    the last sample above the threshold.  Decay that far below ``Eth``,
    combined with Schur stability of ``A``, makes a later re-crossing a
    practical impossibility for the well-damped loops used here, and the
    doubling search would catch it anyway because the settle index is
    recomputed on the extended trajectory.

    Parameters
    ----------
    a:
        Schur-stable autonomous closed-loop matrix.
    x0:
        Initial (augmented) state.
    threshold:
        Threshold ``Eth`` on the selected-state norm.
    norm_selector:
        Optional matrix ``S``; the norm monitored is ``||S x||``
        (used to monitor plant states inside an augmented state).
    period:
        Seconds per step, used to convert the settle index to seconds.
    max_steps:
        Hard cap on the simulated horizon.
    tail_margin:
        How far below threshold the tail must fall before we trust it.

    Raises
    ------
    SettlingError
        If ``A`` is not Schur stable, or the cap is hit before the tail
        decays.
    """
    a = check_square(a, "a")
    x0 = check_vector(x0, "x0", size=a.shape[0])
    return float(
        settling_times(
            a,
            x0[None],
            threshold,
            norm_selector=norm_selector,
            period=period,
            max_steps=max_steps,
            tail_margin=tail_margin,
        )[0]
    )


def settling_times(
    a: np.ndarray,
    states: np.ndarray,
    threshold: float,
    norm_selector: Optional[np.ndarray] = None,
    period: float = 1.0,
    max_steps: int = 200_000,
    tail_margin: float = 10.0,
) -> np.ndarray:
    """Settling time of ``x[k+1] = A x[k]`` from every row of ``states``.

    The rows advance together as one ``(W, n)`` stack, and each row
    follows the rule of :func:`settling_time`: at horizons 256, 512, ...
    (capped at ``max_steps``) a row is done once its last ``horizon // 8``
    norms lie at or below ``threshold / tail_margin``, and its settle
    index is one past its last norm above ``threshold``.  Both indices
    are folded in every ``_CHUNK`` steps, so memory stays ``O(W n)`` and
    no step is simulated twice; finished rows leave the stack at each
    horizon.

    A row's arithmetic does not depend on the other rows: every step is
    the broadcast batched product ``A[None] @ Z[:, :, None]``, which runs
    the same matrix-vector kernel per row as ``A @ x`` does.  (The
    matrix-matrix form ``Z @ A.T`` rounds differently.)

    Returns the settling times in seconds, one per row.

    Raises
    ------
    SettlingError
        If ``A`` is not Schur stable, or the cap is hit before a row's
        tail decays.
    """
    a = check_square(a, "a")
    states = ensure_matrix(states, "states", cols=a.shape[0])
    threshold = check_positive(threshold, "threshold")
    period = check_positive(period, "period")
    if not is_schur_stable(a):
        raise SettlingError(
            f"closed-loop matrix is not Schur stable (rho={spectral_radius(a):.6f})"
        )
    selector = _selector(norm_selector, a.shape[0])
    quiet = threshold / tail_margin
    step = a[None]

    settle = np.zeros(states.shape[0], dtype=int)
    rows = np.arange(states.shape[0])
    z = np.array(states)[:, :, None]
    last_above, last_loud = np.full(rows.size, -1), np.full(rows.size, -1)
    norms = _fold_block(z[None], 0, selector, threshold, quiet, last_above, last_loud)
    k, horizon = 0, 256
    while rows.size:
        while k < horizon:
            block = np.empty((min(_CHUNK, horizon - k),) + z.shape)
            for t in range(block.shape[0]):
                z = np.matmul(step, z, out=block[t])
            norms = _fold_block(block, k + 1, selector, threshold, quiet, last_above, last_loud)
            k += block.shape[0]
        done = last_loud <= horizon - max(1, horizon // 8)
        settle[rows[done]] = last_above[done] + 1
        if horizon >= max_steps and not done.all():
            raise SettlingError(
                f"trajectory did not settle within {max_steps} steps "
                f"(threshold={threshold}, last norm={norms[~done][0]:.3e})"
            )
        left = ~done
        rows, z, norms = rows[left], z[left], norms[left]
        last_above, last_loud = last_above[left], last_loud[left]
        horizon = min(2 * horizon, max_steps)
    return settle * period


#: Steps simulated between two norm checks in :func:`settling_times`.  A
#: block holds ``_CHUNK * W * n`` floats; larger blocks bought no speed
#: and raised peak memory.
_CHUNK = 8


def _fold_block(block, first, selector, threshold, quiet, last_above, last_loud):
    """Fold ``block[t]``, the stacked states of step ``first + t``, into
    each row's last step above ``threshold`` and last step not at or
    below ``quiet``; returns the norms of the block's last step.

    The selector is applied as the per-wait code did, one matrix product
    over the trajectory (exact for the 0/1 plant-state selectors).
    """
    n = block.shape[2]
    norms = state_norms(block.reshape(-1, n) @ selector.T).reshape(block.shape[:2])
    for last, hit in ((last_above, norms > threshold), (last_loud, ~(norms <= quiet))):
        seen = hit.any(axis=0)
        last[seen] = first + len(hit) - 1 - np.argmax(hit[::-1], axis=0)[seen]
    return norms[-1]


def norm_trajectory(
    a: np.ndarray,
    x0: np.ndarray,
    steps: int,
    norm_selector: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Norm sequence ``||S A^k x0||`` for ``k = 0..steps``."""
    a = check_square(a, "a")
    selector = _selector(norm_selector, a.shape[0])
    trajectory = simulate_autonomous(a, x0, steps)
    return state_norms(trajectory @ selector.T)


@dataclass(frozen=True)
class TransientProfile:
    """Summary of the transient of an autonomous loop from ``x0``.

    Attributes
    ----------
    peak_norm:
        Maximum selected-state norm along the trajectory.
    peak_time:
        Time (seconds) at which the peak occurs.
    settling:
        Settling time (seconds) to the threshold.
    monotone:
        Whether the norm decreased monotonically (no transient growth).
    """

    peak_norm: float
    peak_time: float
    settling: float
    monotone: bool


def transient_profile(
    a: np.ndarray,
    x0: np.ndarray,
    threshold: float,
    norm_selector: Optional[np.ndarray] = None,
    period: float = 1.0,
) -> TransientProfile:
    """Characterise the transient of ``x[k+1] = A x[k]`` from ``x0``.

    A non-monotone profile of the ET loop is the mechanism behind the
    paper's non-monotonic dwell/wait relation (Section III).
    """
    settling = settling_time(
        a, x0, threshold, norm_selector=norm_selector, period=period
    )
    steps = max(int(round(settling / period)) + 1, 8)
    norms = norm_trajectory(a, x0, steps, norm_selector=norm_selector)
    peak_index = int(np.argmax(norms))
    monotone = bool(np.all(np.diff(norms) <= 1e-12))
    return TransientProfile(
        peak_norm=float(norms[peak_index]),
        peak_time=peak_index * period,
        settling=settling,
        monotone=monotone,
    )


def _selector(norm_selector: Optional[np.ndarray], dim: int) -> np.ndarray:
    if norm_selector is None:
        return np.eye(dim)
    return ensure_matrix(norm_selector, "norm_selector", cols=dim)


__all__ = [
    "SettlingError",
    "TransientProfile",
    "norm_trajectory",
    "settle_index",
    "settling_time",
    "settling_times",
    "transient_profile",
]
