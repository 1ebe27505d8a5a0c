"""Shared helpers: argument validation and small linear-algebra utilities.

These are deliberately dependency-light; everything else in :mod:`repro`
builds on top of them.
"""

from repro.utils.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_square,
    check_vector,
    ensure_matrix,
)
from repro.utils.linalg import (
    is_schur_stable,
    spectral_radius,
    state_norms,
)

__all__ = [
    "check_in_range",
    "check_nonnegative",
    "check_positive",
    "check_square",
    "check_vector",
    "ensure_matrix",
    "is_schur_stable",
    "spectral_radius",
    "state_norms",
]
