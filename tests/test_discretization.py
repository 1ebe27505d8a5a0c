"""Unit tests for repro.control.discretization.

The ZOH-with-delay construction is cross-checked against brute-force
numerical integration and against its algebraic invariants.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.control.discretization import discretize, discretize_with_delay, zoh_integrals
from repro.control.lti import ContinuousStateSpace


def double_integrator():
    return ContinuousStateSpace(a=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.array([[0.0], [1.0]]))


def damped_system():
    return ContinuousStateSpace(
        a=np.array([[-1.0, 2.0], [0.0, -3.0]]), b=np.array([[0.5], [1.0]])
    )


class TestZohIntegrals:
    def test_phi_is_matrix_exponential(self):
        sys = damped_system()
        phi, _ = zoh_integrals(sys.a, sys.b, 0.2)
        np.testing.assert_allclose(phi, expm(sys.a * 0.2), atol=1e-12)

    def test_gamma_matches_quadrature(self):
        sys = damped_system()
        tau = 0.3
        _, gamma = zoh_integrals(sys.a, sys.b, tau)
        # Brute-force integral of e^{As} B ds.
        ss = np.linspace(0.0, tau, 20001)
        vals = np.stack([expm(sys.a * s) @ sys.b for s in ss])
        ref = np.trapezoid(vals, ss, axis=0)
        np.testing.assert_allclose(gamma, ref, atol=1e-8)

    def test_singular_a_supported(self):
        sys = double_integrator()
        phi, gamma = zoh_integrals(sys.a, sys.b, 1.0)
        # Known closed forms for the double integrator.
        np.testing.assert_allclose(phi, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(gamma, [[0.5], [1.0]], atol=1e-12)

    def test_zero_tau(self):
        sys = damped_system()
        phi, gamma = zoh_integrals(sys.a, sys.b, 0.0)
        np.testing.assert_allclose(phi, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(gamma, np.zeros((2, 1)), atol=1e-14)

    def test_rejects_negative_tau(self):
        sys = damped_system()
        with pytest.raises(ValueError):
            zoh_integrals(sys.a, sys.b, -0.1)


class TestDiscretizeWithDelay:
    def test_zero_delay_has_no_gamma1(self):
        model = discretize(damped_system(), period=0.1)
        np.testing.assert_allclose(model.gamma1, 0.0, atol=1e-14)

    def test_full_delay_has_no_gamma0(self):
        model = discretize_with_delay(damped_system(), period=0.1, delay=0.1)
        np.testing.assert_allclose(model.gamma0, 0.0, atol=1e-14)

    def test_gamma_split_sums_to_full_integral(self):
        sys = damped_system()
        full = discretize(sys, period=0.1)
        for delay in [0.01, 0.05, 0.09]:
            model = discretize_with_delay(sys, period=0.1, delay=delay)
            np.testing.assert_allclose(
                model.gamma0 + model.gamma1,
                full.gamma0,
                atol=1e-12,
                err_msg=f"delay={delay}",
            )

    def test_phi_independent_of_delay(self):
        sys = damped_system()
        ref = discretize(sys, period=0.1).phi
        for delay in [0.0, 0.03, 0.1]:
            model = discretize_with_delay(sys, period=0.1, delay=delay)
            np.testing.assert_allclose(model.phi, ref, atol=1e-12)

    def test_matches_brute_force_simulation(self):
        """One discrete step must equal continuous integration with the
        delayed input switch."""
        sys = damped_system()
        h, d = 0.1, 0.04
        model = discretize_with_delay(sys, period=h, delay=d)
        x0 = np.array([1.0, -0.5])
        u_prev, u_new = np.array([0.7]), np.array([-1.3])
        # Continuous reference: u_prev over [0, d), u_new over [d, h).
        x_mid = expm(sys.a * d) @ x0 + zoh_integrals(sys.a, sys.b, d)[1] @ u_prev
        x_ref = (
            expm(sys.a * (h - d)) @ x_mid
            + zoh_integrals(sys.a, sys.b, h - d)[1] @ u_new
        )
        np.testing.assert_allclose(model.step(x0, u_new, u_prev), x_ref, atol=1e-12)

    def test_carries_plant_metadata(self):
        sys = ContinuousStateSpace(
            a=-np.eye(1), b=np.ones((1, 1)), name="tank"
        )
        model = discretize_with_delay(sys, period=0.5, delay=0.1)
        assert model.name == "tank"
        assert model.period == 0.5
        assert model.delay == 0.1

    def test_rejects_delay_beyond_period(self):
        with pytest.raises(ValueError):
            discretize_with_delay(damped_system(), period=0.1, delay=0.11)

    def test_cosim_stepper_takes_the_same_split(self):
        """The co-simulation's cached family hands out the same Gamma
        pair, bit for bit, clamping a delay outside ``[0, h]`` to its
        edge."""
        from repro.sim.stepper import ZOHCache

        sys = damped_system()
        h = 0.1
        family = ZOHCache().plant(sys, h)
        for delay, clamped in ((-1e-3, 0.0), (0.0, 0.0), (0.04, 0.04), (h, h), (0.2, h)):
            model = discretize_with_delay(sys, period=h, delay=clamped)
            gamma0, gamma1 = family.gammas(delay)
            assert gamma0.tobytes() == model.gamma0.tobytes()
            assert gamma1.tobytes() == model.gamma1.tobytes()
            assert family.phi.tobytes() == model.phi.tobytes()
