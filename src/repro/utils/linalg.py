"""Small linear-algebra utilities shared by the control and core packages:
spectral radius, Schur stability and trajectory norms."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_square


def spectral_radius(matrix) -> float:
    """Largest absolute eigenvalue of a square matrix."""
    matrix = check_square(matrix, "matrix")
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def is_schur_stable(matrix, tol: float = 1e-9) -> bool:
    """Whether all eigenvalues lie strictly inside the unit circle.

    A discrete-time LTI system ``x[k+1] = A x[k]`` is asymptotically stable
    iff ``A`` is Schur stable.
    """
    return spectral_radius(matrix) < 1.0 - tol


def state_norms(states: np.ndarray, ord: int = 2) -> np.ndarray:
    """Row-wise vector norms of a trajectory array of shape ``(steps, n)``."""
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2:
        raise ValueError(f"states must be 1-D or 2-D, got ndim={states.ndim}")
    return np.linalg.norm(states, ord=ord, axis=1)
