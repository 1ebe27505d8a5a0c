"""Unit tests for repro.utils.linalg."""

import numpy as np
import pytest

from repro.utils.linalg import is_schur_stable, spectral_radius, state_norms


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_rotation_has_unit_radius(self):
        theta = 0.3
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert spectral_radius(rot) == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestIsSchurStable:
    def test_stable(self):
        assert is_schur_stable(np.diag([0.99, -0.5]))

    def test_unstable(self):
        assert not is_schur_stable(np.diag([1.01, 0.5]))

    def test_marginally_stable_rejected(self):
        assert not is_schur_stable(np.eye(2))


class TestStateNorms:
    def test_row_norms(self):
        states = np.array([[3.0, 4.0], [0.0, 1.0]])
        np.testing.assert_allclose(state_norms(states), [5.0, 1.0])

    def test_one_dimensional_input(self):
        np.testing.assert_allclose(state_norms(np.array([1.0, -2.0])), [1.0, 2.0])

    def test_infinity_norm(self):
        states = np.array([[3.0, -4.0]])
        assert state_norms(states, ord=np.inf)[0] == pytest.approx(4.0)
