"""Small linear-algebra utilities shared by the control and core packages:
spectral radius, Schur stability, trajectory norms, and the one-thread
pin of the BLAS that scipy and numpy bundle."""

from __future__ import annotations

import ctypes
import os
from typing import List

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


#: ``openblas_set_num_threads`` under every name an OpenBLAS build may
#: export it: plain, scipy's and numpy's renamed builds, 64-bit ints.
_OPENBLAS_SETTERS = tuple(
    f"{prefix}set_num_threads{suffix}"
    for prefix in ("openblas_", "scipy_openblas_")
    for suffix in ("", "64_", "_64")
)


def pin_blas_threads() -> List[str]:
    """Set every OpenBLAS mapped into this process to one thread.

    Every BLAS/LAPACK problem the design chain solves is at most 5x5,
    yet OpenBLAS hands a multi-column ``dgetrs`` (in the Padé solve of
    every dense ``expm``, and in ``solve_discrete_are``) to its thread
    pool at any size, and the woken helper then spins for about 0.13 s
    of CPU on another core.  At these sizes one thread computes the
    same results without the spin.  Libraries are found in
    ``/proc/self/maps`` and opened with ``RTLD_NOLOAD``, so nothing new
    loads.  Returns the basenames pinned; without ``/proc`` or without
    OpenBLAS it pins nothing, and it never raises.
    """
    try:
        with open("/proc/self/maps", "rb") as maps:
            paths = {
                os.fsdecode(fields[5].strip())
                for fields in (line.split(None, 5) for line in maps)
                if len(fields) == 6 and b"openblas" in os.path.basename(fields[5])
            }
    except OSError:
        return []
    pinned = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except (OSError, AttributeError):
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned.append(os.path.basename(path))
                break
    return pinned
