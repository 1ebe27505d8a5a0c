"""Stacked dwell characterisation is bitwise equal to per-wait measurement.

The oracle below is a frozen copy of the per-wait loops that measured
dwell curves before the sweeps were stacked: one ``settling_time``
simulation per wait (restarting from ``k = 0`` whenever its horizon
doubles) for the linear loops, and one scalar RK4 run per switch instant
for the servo rig.  Every curve, ``xi_tt`` and ``xi_et`` the stacked
passes produce must equal the oracle's exactly — settle indices are
integers, so there is no tolerance to hide behind.
"""

from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.control.analysis import SettlingError, settling_time, settling_times
from repro.core.characterization import characterize_response_source
from repro.core.switching import LinearSwitchedSystem, measure_dwell_curve
from repro.experiments.ablations import run_threshold_sweep
from repro.experiments.casestudy import MULTIRATE_CASE_STUDY, SIMULATION_CASE_STUDY
from repro.experiments.fig3 import run_fig3
from repro.pipeline.cache import DwellCurveCache, measure_servo
from repro.testbed.servo import ServoRigConfig, default_servo_testbed

# ---------------------------------------------------------------------------
# Frozen per-wait oracle (do not "improve": it is the reference)
# ---------------------------------------------------------------------------


def _oracle_settling_time(a, x0, threshold, selector, period, max_steps=200_000):
    steps = 256
    while True:
        trajectory = np.empty((steps + 1, a.shape[0]))
        trajectory[0] = x = x0
        for k in range(steps):
            x = a @ x
            trajectory[k + 1] = x
        norms = np.linalg.norm(trajectory @ selector.T, ord=2, axis=1)
        if np.all(norms[-max(1, steps // 8):] <= threshold / 10.0):
            above = np.flatnonzero(norms > threshold)
            return (0 if above.size == 0 else int(above[-1]) + 1) * period
        if steps >= max_steps:
            raise SettlingError("did not settle")
        steps = min(2 * steps, max_steps)


def _oracle_linear_responses(system: LinearSwitchedSystem, waits):
    """``xi_et`` and the total response at each wait, one simulation each."""
    s, period = system.norm_selector, system.period
    xi_et = _oracle_settling_time(system.a1, system.x0, system.threshold, s, period)
    et_samples = int(round(xi_et / period))
    responses = {}
    for wait in waits:
        if wait >= et_samples:
            responses[wait] = wait * period
        else:
            state = np.linalg.matrix_power(system.a1, wait) @ system.x0
            dwell = _oracle_settling_time(system.a2, state, system.threshold, s, period)
            responses[wait] = wait * period + dwell
    return xi_et, responses


def _oracle_curve(responses, xi_et, period, wait_step, last_sample=None):
    if last_sample is None:
        last_sample = int(np.ceil(xi_et / period))
    waits, dwells = [], []
    for wait_samples in range(0, last_sample + 1, wait_step):
        wait = wait_samples * period
        waits.append(wait)
        dwells.append(max(0.0, responses[wait_samples] - wait))
    return np.asarray(waits), np.asarray(dwells)


class _OracleRig:
    def __init__(self, config):
        self.config = config
        self.state = np.array([float(config.disturbance_angle), 0.0])

    def measure(self):
        state = self.state.copy()
        if self.config.encoder_counts is not None:
            resolution = 2.0 * np.pi / self.config.encoder_counts
            state[0] = np.round(state[0] / resolution) * resolution
        return state

    def saturate(self, torque):
        limit = self.config.max_torque
        return float(np.clip(torque, -limit, limit))

    def _derivative(self, state, torque):
        cfg = self.config
        theta, omega = state
        alpha = (
            (cfg.gravity / cfg.length) * np.sin(theta)
            - (cfg.damping / cfg.inertia) * omega
            + torque / cfg.inertia
        )
        return np.array([omega, alpha])

    def advance(self, duration, torque):
        if duration == 0:
            return
        steps = max(1, int(round(self.config.substeps * duration / self.config.period)))
        dt = duration / steps
        state, saturated = self.state, self.saturate(torque)
        for _ in range(steps):
            k1 = self._derivative(state, saturated)
            k2 = self._derivative(state + 0.5 * dt * k1, saturated)
            k3 = self._derivative(state + 0.5 * dt * k2, saturated)
            k4 = self._derivative(state + dt * k3, saturated)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        self.state = state


def _oracle_servo_norms(testbed, wait_samples, max_samples):
    cfg, rig = testbed.config, _OracleRig(testbed.config)
    norms = np.empty(max_samples)
    u_prev = 0.0
    for k in range(max_samples):
        x = rig.measure()
        norms[k] = float(np.hypot(x[0], x[1]))
        in_et = k < wait_samples
        controller = testbed.et_controller if in_et else testbed.tt_controller
        delay = cfg.et_delay if in_et else cfg.tt_delay
        z = np.concatenate([x, [u_prev]])
        u_new = rig.saturate(float((-controller.gain @ z)[0]))
        rig.advance(delay, u_prev)
        rig.advance(cfg.period - delay, u_new)
        u_prev = u_new
    return norms


def _oracle_settle(norms, threshold, period) -> Optional[float]:
    above = np.flatnonzero(norms > threshold)
    if above.size == 0:
        return 0.0
    if above[-1] == norms.size - 1:
        return None
    return int(above[-1] + 1) * period


class _OracleServo:
    """Per-wait norm runs of one rig, settled at any threshold and any
    horizon up to the one they were simulated for (a shorter run is a
    prefix of a longer one)."""

    def __init__(self, testbed, max_samples):
        self.testbed, self.max_samples = testbed, max_samples
        self._runs = {}

    def response(self, wait, threshold, max_samples):
        key = min(wait, self.max_samples)
        if key not in self._runs:
            self._runs[key] = _oracle_servo_norms(self.testbed, key, self.max_samples)
        return _oracle_settle(
            self._runs[key][:max_samples], threshold, self.testbed.config.period
        )

    def measurement(self, threshold, wait_step, max_samples):
        period = self.testbed.config.period
        xi_tt = self.response(0, threshold, max_samples)
        xi_et = self.response(max_samples, threshold, max_samples)
        responses = {
            w: self.response(w, threshold, max_samples)
            for w in range(0, int(np.ceil(xi_et / period)) + 1, wait_step)
        }
        waits, dwells = _oracle_curve(responses, xi_et, period, wait_step)
        return waits, dwells, xi_tt, xi_et


# ---------------------------------------------------------------------------
# Linear loops: every roster plant at strides 1, 2 and 4
# ---------------------------------------------------------------------------

ROSTER = sorted(
    {(name, detuning) for name, detuning, *_ in SIMULATION_CASE_STUDY + MULTIRATE_CASE_STUDY}
)
CACHE = DwellCurveCache()


@pytest.fixture(scope="module", params=ROSTER, ids=[name for name, _ in ROSTER])
def plant_oracle(request):
    name, detuning = request.param
    measured = CACHE.measurement(name, detuning, wait_step=1)
    system = LinearSwitchedSystem.from_application(measured.app, measured.plant.disturbance)
    last = int(np.ceil(system.pure_et_response() / system.period))
    xi_et, responses = _oracle_linear_responses(system, range(last + 1))
    return name, detuning, system, xi_et, responses


@pytest.mark.parametrize("wait_step", [1, 2, 4])
def test_linear_curves_bitwise_equal_to_per_wait_loop(plant_oracle, wait_step):
    name, detuning, system, xi_et, responses = plant_oracle
    curve = CACHE.measurement(name, detuning, wait_step=wait_step).curve
    waits, dwells = _oracle_curve(responses, xi_et, system.period, wait_step)
    assert curve.xi_et == xi_et
    assert np.array_equal(curve.waits, waits)
    assert np.array_equal(curve.dwells, dwells)
    assert curve.xi_tt == dwells[0] == system.pure_tt_response()


def test_scalar_calls_are_the_one_row_case(plant_oracle):
    _, _, system, xi_et, responses = plant_oracle
    assert system.pure_et_response() == xi_et
    for wait in (0, 1, 3, len(responses) // 2):
        if wait < round(xi_et / system.period):
            assert system.response_time(wait) == responses[wait]


# ---------------------------------------------------------------------------
# Linear loops: random Schur-stable switched pairs
# ---------------------------------------------------------------------------


def _schur(raw, rho):
    matrix = np.asarray(raw, dtype=float)
    radius = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    assume(radius > 1e-3)
    return matrix * (rho / radius)


@st.composite
def switched_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    entry = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    a1 = _schur(draw(square), draw(st.floats(0.5, 0.95)))
    a2 = _schur(draw(square), draw(st.floats(0.2, 0.9)))
    x0 = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    selector = np.eye(n)[: n - 1]  # plant states of z = [x; u_prev]
    scale = float(np.linalg.norm(selector @ x0))
    assume(scale > 1e-3)
    threshold = scale * draw(st.floats(0.05, 0.9))
    return a1, a2, x0, selector, threshold


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(switched_pairs(), st.sampled_from([1, 2, 3]))
def test_random_switched_pairs_equal_settle_indices(pair, wait_step):
    a1, a2, x0, selector, threshold = pair
    system = LinearSwitchedSystem(
        a1=a1, a2=a2, x0=x0, threshold=threshold, period=1.0, norm_selector=selector
    )
    xi_et = system.pure_et_response()
    waits = np.arange(0, int(np.ceil(xi_et)) + 1, wait_step)
    oracle_et, responses = _oracle_linear_responses(system, waits.tolist())
    assert xi_et == oracle_et
    stacked = system.response_source()(waits)
    assert stacked.tolist() == [responses[wait] for wait in waits.tolist()]


# ---------------------------------------------------------------------------
# Servo rig
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_servo_oracle():
    # 500 samples serve both the 400-sample defaults and the
    # threshold=0.05 / max_samples=500 sweep: same rig, same runs.
    return _OracleServo(default_servo_testbed(), max_samples=500)


def _assert_servo_equal(measured, oracle):
    waits, dwells, xi_tt, xi_et = oracle
    assert measured.xi_et == xi_et
    assert measured.xi_tt == xi_tt
    assert np.array_equal(measured.curve.waits, waits)
    assert np.array_equal(measured.curve.dwells, dwells)


@pytest.mark.parametrize("wait_step", [2, 4])
def test_servo_defaults_bitwise_equal(default_servo_oracle, wait_step):
    measured = DwellCurveCache().servo_measurement(wait_step=wait_step, max_samples=400)
    _assert_servo_equal(measured, default_servo_oracle.measurement(0.1, wait_step, 400))


def test_servo_threshold_sweep_point_bitwise_equal(default_servo_oracle):
    measured = DwellCurveCache().servo_measurement(
        threshold=0.05, wait_step=4, max_samples=500
    )
    _assert_servo_equal(measured, default_servo_oracle.measurement(0.05, 4, 500))


@pytest.mark.parametrize(
    "config",
    [ServoRigConfig(encoder_counts=4096), ServoRigConfig(max_torque=2.5)],
    ids=["encoder-4096", "saturating-torque"],
)
def test_servo_variants_bitwise_equal(config):
    testbed = default_servo_testbed(config)
    measured = measure_servo(testbed, wait_step=8, max_samples=400)
    oracle = _OracleServo(testbed, max_samples=400)
    _assert_servo_equal(measured, oracle.measurement(config.threshold, 8, 400))


def test_fig3_matches_the_oracle(default_servo_oracle):
    result = run_fig3(wait_step=4)
    waits, dwells, xi_tt, xi_et = default_servo_oracle.measurement(0.1, 4, 400)
    assert (result.xi_tt, result.xi_et) == (xi_tt, xi_et)
    assert np.array_equal(result.curve.dwells, dwells)


def test_threshold_sweep_keeps_its_own_waits(default_servo_oracle):
    (row,) = run_threshold_sweep(thresholds=[0.05], wait_step=4, max_samples=500).rows
    oracle = default_servo_oracle
    xi_tt = oracle.response(0, 0.05, 500)
    xi_et = oracle.response(500, 0.05, 500)
    peak = 0.0
    for wait in range(0, int(xi_et / 0.02) + 1, 4):
        peak = max(peak, oracle.response(wait, 0.05, 500) - wait * 0.02)
    assert row == (0.05, xi_tt, xi_et, peak)


def test_servo_scalar_call_is_the_one_row_case(default_servo_oracle):
    testbed = default_servo_testbed()
    for wait in (0, 7, 10**6):
        assert testbed.response_time(wait, max_samples=400) == (
            default_servo_oracle.response(wait, 0.1, 400)
        )


# ---------------------------------------------------------------------------
# Row independence
# ---------------------------------------------------------------------------


def test_linear_row_alone_equals_row_in_a_stack_of_200():
    measured = DwellCurveCache().measurement("servo-rig", 1000.0, wait_step=4)
    system = LinearSwitchedSystem.from_application(measured.app, measured.plant.disturbance)
    waits = np.arange(201)
    stacked = system.dwell_times(waits)
    for wait in (0, 17, 100, 200):
        assert system.dwell_times([wait])[0] == stacked[wait]
        assert system.dwell_time(wait) == stacked[wait]


def test_servo_row_alone_equals_row_in_a_stack_of_200():
    source = default_servo_testbed().response_source(max_samples=400)
    waits = np.arange(201)
    stacked = source(waits)
    for wait in (0, 13, 57, 200):
        assert source([wait])[0] == stacked[wait]
    assert np.array_equal(source(waits[::-1]), stacked[::-1])


def test_per_wait_callables_keep_working():
    calls = []

    def source(wait_samples: int) -> float:
        calls.append(wait_samples)
        return wait_samples * 0.1 + max(0.0, 1.0 - 0.05 * wait_samples)

    result = characterize_response_source(
        "black-box", source, pure_et_response=2.0, period=0.1,
        deadline=3.0, min_inter_arrival=5.0, wait_step=2,
    )
    assert calls == list(range(0, 21, 2))
    assert result.curve.xi_tt == 1.0


def test_per_wait_callable_to_measure_dwell_curve_is_rejected():
    with pytest.raises(ValueError, match="per_wait_source"):
        measure_dwell_curve(lambda waits: 1.0, pure_et_response=1.0, period=0.1)


# ---------------------------------------------------------------------------
# Unchanged errors
# ---------------------------------------------------------------------------


def test_non_schur_input_raises_settling_error():
    with pytest.raises(SettlingError, match="not Schur stable"):
        settling_times(np.array([[1.01]]), np.ones((3, 1)), threshold=0.1)
    with pytest.raises(SettlingError, match="not Schur stable"):
        settling_time(np.array([[1.01]]), [1.0], threshold=0.1)


def test_max_steps_cap_still_applies():
    slow = np.array([[0.999]])
    with pytest.raises(SettlingError, match="did not settle within 300 steps"):
        settling_time(slow, [1.0], threshold=0.1, max_steps=300)
    # One slow row fails the whole stack; fast rows alone are fine.
    states = np.array([[1e-3], [1.0]])
    with pytest.raises(SettlingError, match="within 512 steps"):
        settling_times(slow, states, threshold=0.1, max_steps=512)
    assert settling_times(slow, states[:1], threshold=0.1, max_steps=512)[0] == 0.0


def test_unsettled_servo_run_still_raises():
    source = default_servo_testbed().response_source(max_samples=60)
    with pytest.raises(RuntimeError, match="did not settle within 60 samples"):
        source([0, 10**6])
    with pytest.raises(RuntimeError, match=r"did not settle .*wait_samples=1000000"):
        default_servo_testbed().response_time(10**6, max_samples=20)
