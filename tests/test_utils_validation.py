"""Unit tests for repro.utils.validation."""

import math

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_square,
    check_vector,
    ensure_matrix,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5, "x") == 2.5

    def test_accepts_numpy_scalar(self):
        assert check_positive(np.float64(1.0), "x") == 1.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive(-1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive(math.inf, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive(True, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError, match="real number"):
            check_positive("3", "x")


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative(0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_nonnegative(-0.1, "x")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0
        assert check_in_range(0.0, "x", 0.0, 1.0) == 0.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, "x", 0.0, 1.0, high_inclusive=False)
        with pytest.raises(ValueError):
            check_in_range(0.0, "x", 0.0, 1.0, low_inclusive=False)

    def test_out_of_range_message_names_argument(self):
        with pytest.raises(ValueError, match="delay"):
            check_in_range(2.0, "delay", 0.0, 1.0)


class TestEnsureMatrix:
    def test_converts_nested_list(self):
        out = ensure_matrix([[1, 2], [3, 4]], "m")
        assert out.shape == (2, 2)
        assert out.dtype == float

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            ensure_matrix([1, 2, 3], "m")

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError, match="non-finite"):
            ensure_matrix([[np.nan, 0], [0, 1]], "m")

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="rows"):
            ensure_matrix([[1, 2]], "m", rows=2)
        with pytest.raises(ValueError, match="columns"):
            ensure_matrix([[1, 2]], "m", cols=3)


class TestCheckSquare:
    def test_accepts_square(self):
        assert check_square(np.eye(3), "m").shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square(np.ones((2, 3)), "m")


class TestCheckVector:
    def test_flattens_column_vector(self):
        out = check_vector(np.ones((3, 1)), "v")
        assert out.shape == (3,)

    def test_flattens_row_vector(self):
        out = check_vector(np.ones((1, 4)), "v")
        assert out.shape == (4,)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="vector"):
            check_vector(np.ones((2, 2)), "v")

    def test_size_check(self):
        with pytest.raises(ValueError, match="length 2"):
            check_vector([1.0, 2.0, 3.0], "v", size=2)

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_vector([1.0, np.inf], "v")
