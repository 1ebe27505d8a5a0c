"""Argument-validation helpers used across the library.

All helpers raise :class:`ValueError` (or :class:`TypeError` for wrong
types) with messages that name the offending argument, so errors surface
close to the caller's mistake rather than deep inside numerics.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

Number = Union[int, float]


def check_positive(value: Number, name: str) -> float:
    """Return ``value`` as float after checking it is finite and > 0."""
    value = _as_finite_float(value, name)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_nonnegative(value: Number, name: str) -> float:
    """Return ``value`` as float after checking it is finite and >= 0."""
    value = _as_finite_float(value, name)
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(
    value: Number,
    name: str,
    low: float = -math.inf,
    high: float = math.inf,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Return ``value`` as float after checking it lies in the interval.

    Parameters
    ----------
    value:
        The number to validate.
    name:
        Argument name used in error messages.
    low, high:
        Interval endpoints.
    low_inclusive, high_inclusive:
        Whether each endpoint is allowed.
    """
    value = _as_finite_float(value, name)
    low_ok = value >= low if low_inclusive else value > low
    high_ok = value <= high if high_inclusive else value < high
    if not (low_ok and high_ok):
        lo = "[" if low_inclusive else "("
        hi = "]" if high_inclusive else ")"
        raise ValueError(
            f"{name} must lie in {lo}{low}, {high}{hi}, got {value!r}"
        )
    return value


def ensure_matrix(value, name: str, rows: int = None, cols: int = None) -> np.ndarray:
    """Convert ``value`` to a 2-D float array, optionally checking its shape.

    Scalars and 1-D inputs are rejected: state-space code in this library
    always works with explicit 2-D matrices so dimension bugs fail fast.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if rows is not None and arr.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    return arr


def check_square(value, name: str) -> np.ndarray:
    """Convert ``value`` to a 2-D float array and check it is square."""
    arr = ensure_matrix(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_vector(value, name: str, size: int = None) -> np.ndarray:
    """Convert ``value`` to a 1-D float array, optionally checking length.

    Column/row vectors of shape ``(n, 1)`` / ``(1, n)`` are flattened; other
    2-D inputs are rejected.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if size is not None and arr.shape[0] != size:
        raise ValueError(f"{name} must have length {size}, got {arr.shape[0]}")
    return arr


def _as_finite_float(value: Number, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value
