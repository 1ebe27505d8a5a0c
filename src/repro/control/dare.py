"""Discrete algebraic Riccati equation (DARE) and discrete LQR design.

The paper designs its ET and TT state-feedback controllers "using optimal
control principles" [refs 9, 10]; we provide a discrete LQR with two
interchangeable DARE backends:

* :func:`solve_dare_iterative` — a plain fixed-point (value) iteration of
  the Riccati recursion, self-contained and easy to audit; it is the
  reference the test suite checks the fast solver against, and
  ``dlqr(solver="iterative")`` uses it;
* :func:`solve_dare` — ``scipy.linalg.solve_discrete_are``, residual
  checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_are

from repro.utils.linalg import is_schur_stable
from repro.utils.validation import check_positive, check_square, ensure_matrix


class RiccatiError(RuntimeError):
    """Raised when a DARE solve fails to converge or produce a stabiliser."""


def solve_dare_iterative(
    a: np.ndarray,
    b: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    max_iterations: int = 100_000,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Solve ``P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q`` by value iteration.

    Converges for stabilisable ``(A, B)`` and detectable ``(A, Q^{1/2})``;
    raises :class:`RiccatiError` if the iterate has not settled after
    ``max_iterations`` sweeps.
    """
    a = check_square(a, "a")
    b = ensure_matrix(b, "b", rows=a.shape[0])
    q = check_square(q, "q")
    r = check_square(r, "r")
    _check_weights(a, b, q, r)

    p = q.copy()
    for _ in range(int(check_positive(max_iterations, "max_iterations"))):
        btp = b.T @ p
        gain_term = np.linalg.solve(r + btp @ b, btp @ a)
        p_next = a.T @ p @ a - (a.T @ p @ b) @ gain_term + q
        p_next = 0.5 * (p_next + p_next.T)  # keep symmetric against drift
        if np.max(np.abs(p_next - p)) <= tolerance * max(1.0, np.max(np.abs(p_next))):
            return p_next
        p = p_next
    raise RiccatiError(
        f"DARE value iteration did not converge in {max_iterations} iterations"
    )


def solve_dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve the DARE with scipy, verifying the residual."""
    a = check_square(a, "a")
    b = ensure_matrix(b, "b", rows=a.shape[0])
    q = check_square(q, "q")
    r = check_square(r, "r")
    _check_weights(a, b, q, r)

    p = np.asarray(solve_discrete_are(a, b, q, r))
    p = 0.5 * (p + p.T)
    residual = dare_residual(a, b, q, r, p)
    if residual > 1e-6 * max(1.0, float(np.max(np.abs(p)))):
        raise RiccatiError(f"DARE residual too large: {residual:.3e}")
    return p


def dare_residual(a, b, q, r, p) -> float:
    """Max-abs residual of the DARE at candidate solution ``P``."""
    btp = np.asarray(b).T @ p
    gain_term = np.linalg.solve(np.asarray(r) + btp @ b, btp @ a)
    lhs = np.asarray(a).T @ p @ a - (np.asarray(a).T @ p @ b) @ gain_term + q
    return float(np.max(np.abs(lhs - p)))


@dataclass(frozen=True)
class LqrResult:
    """Discrete LQR design output.

    Attributes
    ----------
    gain:
        Feedback gain ``K`` for the control law ``u[k] = -K x[k]``.
    cost_matrix:
        Stabilising DARE solution ``P`` (cost-to-go ``x' P x``).
    closed_loop:
        Closed-loop matrix ``A - B K``.
    """

    gain: np.ndarray
    cost_matrix: np.ndarray
    closed_loop: np.ndarray

    def is_stabilizing(self) -> bool:
        return is_schur_stable(self.closed_loop)


def dlqr(a, b, q, r, solver: str = "auto") -> LqrResult:
    """Design a discrete-time LQR ``u[k] = -K x[k]``.

    Parameters
    ----------
    a, b:
        System matrices of ``x[k+1] = A x[k] + B u[k]``.
    q, r:
        State and input cost weights (``Q >= 0``, ``R > 0``).
    solver:
        ``"auto"`` (scipy with residual check), or ``"iterative"`` for the
        self-contained value iteration.

    Raises
    ------
    RiccatiError
        If the DARE cannot be solved or the resulting loop is unstable.
    """
    a = check_square(a, "a")
    b = ensure_matrix(b, "b", rows=a.shape[0])
    if solver == "auto":
        p = solve_dare(a, b, q, r)
    elif solver == "iterative":
        p = solve_dare_iterative(a, b, q, r)
    else:
        raise ValueError(f"unknown solver {solver!r}; use 'auto' or 'iterative'")
    btp = b.T @ p
    gain = np.linalg.solve(np.asarray(r) + btp @ b, btp @ a)
    closed_loop = a - b @ gain
    result = LqrResult(gain=gain, cost_matrix=p, closed_loop=closed_loop)
    if not result.is_stabilizing():
        raise RiccatiError(
            "LQR design produced an unstable closed loop; "
            "check stabilisability of (A, B)"
        )
    return result


def _check_weights(a, b, q, r) -> None:
    if q.shape[0] != a.shape[0]:
        raise ValueError(f"q must match state dimension {a.shape[0]}, got {q.shape}")
    if r.shape[0] != b.shape[1]:
        raise ValueError(f"r must match input dimension {b.shape[1]}, got {r.shape}")
    if np.min(np.linalg.eigvalsh(0.5 * (q + q.T))) < -1e-10:
        raise ValueError("q must be positive semi-definite")
    if np.min(np.linalg.eigvalsh(0.5 * (r + r.T))) <= 0:
        raise ValueError("r must be positive definite")


__all__ = [
    "LqrResult",
    "RiccatiError",
    "dare_residual",
    "dlqr",
    "solve_dare",
    "solve_dare_iterative",
]
