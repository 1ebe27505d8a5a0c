"""Simulated servo-motor rig (substitute for the paper's Figure 2 hardware).

The rig is an inverted rigid stick with an end mass, driven by a servo
motor whose amplifier saturates at ``max_torque``.  The control loop runs
at the paper's ``h = 20 ms``; the sensor-to-actuator delay is 0.7 ms when
the control message travels in a TT slot and up to 20 ms over ET
communication.  Between sampling instants the nonlinear dynamics

    J * theta'' = m g l sin(theta) - b theta' + tau

are integrated with classic RK4 at a configurable substep count.  The
input torque follows the zero-order-hold-with-delay semantics of paper
Eq. 1: during ``[t_k, t_k + d)`` the previous torque is still applied.

The default configuration (:func:`default_servo_testbed`) is tuned so the
pure-mode response times land on the paper's measured values:
``xi_TT = 0.68 s`` and ``xi_ET ~ 2.2 s`` (paper: 2.16 s), with the
characteristic non-monotonic dwell/wait relation of Figure 3.

A Figure 3 sweep switches from ET to TT at many candidate instants.  The
run switched at ``kwait`` *is* the pure-ET run for its first ``kwait``
samples, so :class:`ServoSweep` simulates that ET row once and starts a
TT row at each wait from a copy of its ``(theta, omega, u_prev)``; the
TT rows then advance together, elementwise, in one RK4 pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.control.controller import ModeController, design_mode_controller
from repro.control.plants import PlantDefinition, servo_rig
from repro.control.pole_placement import design_mode_controller_poles
from repro.utils.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class ServoRigConfig:
    """Physical parameters of the simulated rig.

    Defaults mirror the paper's setup: a 300 g end mass on a rigid stick,
    h = 20 ms sampling, 0.7 ms TT delay, 20 ms worst-case ET delay,
    threshold ``Eth = 0.1`` and a 45 degree initial displacement.
    """

    mass: float = 0.3
    length: float = 0.85
    damping: float = 0.012
    gravity: float = 9.81
    max_torque: float = 4.0
    period: float = 0.020
    tt_delay: float = 0.0007
    et_delay: float = 0.020
    threshold: float = 0.1
    disturbance_angle: float = np.deg2rad(45.0)
    substeps: int = 20
    encoder_counts: Optional[int] = None

    def __post_init__(self):
        for name in ("mass", "length", "gravity", "max_torque", "period"):
            check_positive(getattr(self, name), name)
        check_nonnegative(self.damping, "damping")
        check_nonnegative(self.tt_delay, "tt_delay")
        if not self.tt_delay < self.et_delay <= self.period + 1e-12:
            raise ValueError(
                "expected tt_delay < et_delay <= period; got "
                f"tt_delay={self.tt_delay}, et_delay={self.et_delay}, period={self.period}"
            )
        check_positive(self.threshold, "threshold")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.encoder_counts is not None and self.encoder_counts < 8:
            raise ValueError("encoder_counts must be >= 8 when given")

    @property
    def inertia(self) -> float:
        """End-mass moment of inertia ``J = m l^2``."""
        return self.mass * self.length**2

    def plant(self) -> PlantDefinition:
        """Linearised plant definition matching this rig."""
        return servo_rig(
            mass=self.mass,
            length=self.length,
            damping=self.damping,
            gravity=self.gravity,
        )


def _advance(
    config: ServoRigConfig, theta, omega, torque, duration: float
) -> Tuple[np.ndarray, np.ndarray]:
    """RK4-integrate the rig over ``duration`` at constant ``torque``.

    Elementwise in ``theta``, ``omega`` and ``torque``, which may be
    scalars or equally long stacks of independent rigs.
    """
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    if duration == 0:
        return theta, omega
    steps = max(1, int(round(config.substeps * duration / config.period)))
    dt = duration / steps
    half, sixth = 0.5 * dt, dt / 6.0
    pull = config.gravity / config.length
    drag = config.damping / config.inertia
    push = torque / config.inertia
    for _ in range(steps):
        # Classic RK4 on (theta' = omega, omega' = alpha); ki = (wi, ai).
        a1 = pull * np.sin(theta) - drag * omega + push
        t2, w2 = theta + half * omega, omega + half * a1
        a2 = pull * np.sin(t2) - drag * w2 + push
        t3, w3 = theta + half * w2, omega + half * a2
        a3 = pull * np.sin(t3) - drag * w3 + push
        t4, w4 = theta + dt * w3, omega + dt * a3
        a4 = pull * np.sin(t4) - drag * w4 + push
        theta = theta + sixth * (omega + 2 * w2 + 2 * w3 + w4)
        omega = omega + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
    return theta, omega


def _quantize(config: ServoRigConfig, theta):
    """Encoder reading of ``theta`` (unchanged without an encoder model)."""
    counts = config.encoder_counts
    if counts is None:
        return theta
    resolution = 2.0 * np.pi / counts
    return np.round(theta / resolution) * resolution


class NonlinearServoRig:
    """Continuous-time nonlinear rig integrated with RK4.

    State is ``[theta, omega]`` (shaft angle from upright, angular
    velocity).  The only public mutators are :meth:`reset` and
    :meth:`advance`; reading :attr:`state` never perturbs the simulation.
    """

    def __init__(self, config: ServoRigConfig):
        self.config = config
        self._state = np.zeros(2)

    @property
    def state(self) -> np.ndarray:
        """Copy of the true state ``[theta, omega]``."""
        return self._state.copy()

    def measure(self) -> np.ndarray:
        """Sensor reading, with optional encoder quantisation of theta."""
        state = self._state.copy()
        state[0] = _quantize(self.config, state[0])
        return state

    def reset(self, theta: float, omega: float = 0.0) -> None:
        self._state = np.array([float(theta), float(omega)])

    def saturate(self, torque: float) -> float:
        """Clamp a commanded torque to the amplifier limits."""
        limit = self.config.max_torque
        return float(np.clip(torque, -limit, limit))

    def advance(self, duration: float, torque: float) -> None:
        """Integrate the rig forward by ``duration`` at constant torque."""
        theta, omega = self._state
        self._state = np.array(
            _advance(self.config, theta, omega, self.saturate(torque), duration)
        )


@dataclass(frozen=True)
class ServoTestbed:
    """The rig plus its two mode controllers (the full Figure 2 setup)."""

    config: ServoRigConfig
    et_controller: ModeController
    tt_controller: ModeController

    def response_source(self, max_samples: int = 4000) -> "ServoSweep":
        """Stacked response source over switch instants (see :class:`ServoSweep`)."""
        return ServoSweep(self, max_samples)

    def response_time(self, wait_samples: int, max_samples: int = 4000) -> float:
        """Settling time (seconds) for a given switch point.

        The one-wait case of :class:`ServoSweep`; pass ``wait_samples >=
        max_samples`` for a pure-ET run, ``0`` for pure TT.

        Raises
        ------
        RuntimeError
            If the run does not settle within ``max_samples``.
        """
        return float(self.response_source(max_samples)([wait_samples])[0])


class ServoSweep:
    """The testbed's disturbance rejection, switched ET to TT at any wait.

    The shared ET row is the pure-ET run, simulated lazily as far as a
    call needs it: per sampling instant it records ``(theta, omega,
    u_prev)`` and the measured norm.  Calling the sweep with an array of
    waits starts one TT row per wait from the ET row's record at that
    sample and advances all TT rows together.  Every row does exactly
    the arithmetic of a run switched at its own wait, so its settle index
    does not depend on the other rows.
    """

    def __init__(self, testbed: ServoTestbed, max_samples: int = 4000):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.testbed = testbed
        self.max_samples = int(max_samples)
        # Rows: theta, omega, u_prev at each ET sampling instant, then its norm.
        self._et_record = np.empty((4, self.max_samples))
        self._et_samples = 0
        self._et_state = (np.float64(testbed.config.disturbance_angle), np.float64(0.0), 0.0)

    def pure_et_response(self) -> float:
        """``xi_ET`` in seconds: the settling time of the ET row."""
        return float(self([self.max_samples])[0])

    def __call__(self, waits) -> np.ndarray:
        """Total response times (seconds) of the runs switched at ``waits``.

        A wait of ``max_samples`` or more is the pure-ET run.
        """
        waits = np.asarray(waits, dtype=int)
        if waits.ndim != 1:
            raise ValueError(f"waits must be one-dimensional, got shape {waits.shape}")
        if np.any(waits < 0):
            raise ValueError(f"wait_samples must be non-negative, got {waits.min()}")
        size = self.max_samples
        if waits.size:
            self._extend_et(int(np.minimum(waits + 1, size).max()))
        norms = self._et_record[3, : self._et_samples]
        # prefix[k]: last ET sample before k above Eth (-1 if none).
        above = np.where(norms > self.testbed.config.threshold, np.arange(norms.size), -1)
        prefix = np.concatenate(([-1], np.maximum.accumulate(above)))
        last_above = prefix[np.minimum(waits, size)]
        order = np.argsort(waits, kind="stable")
        order = order[waits[order] < size]
        if order.size:
            last_above[order] = np.maximum(last_above[order], self._tt_rows(waits[order]))
        unsettled = np.flatnonzero(last_above == size - 1)
        if unsettled.size:
            raise RuntimeError(
                f"rig did not settle within {size} samples "
                f"(wait_samples={waits[unsettled[0]]})"
            )
        return (last_above + 1) * self.testbed.config.period

    def _sample(self, controller: ModeController, delay: float, theta, omega, u_prev):
        """One sampling period in one mode, elementwise over stacked rigs.

        Returns the norm ``||x[k]||`` measured at the sampling instant and
        the next ``(theta, omega, u_prev)``.  The control law is the
        batched ``-K @ z`` (one dot product per rig, as
        :meth:`ModeController.control` computes it).
        """
        cfg = self.testbed.config
        measured = _quantize(cfg, theta)
        norms = np.hypot(measured, omega)
        z = np.stack([measured, omega, u_prev], axis=-1)[..., None]
        command = (-controller.gain @ z)[..., 0, 0]
        u_new = np.clip(command, -cfg.max_torque, cfg.max_torque)
        # ZOH with delay: previous torque until the new input lands.
        theta, omega = _advance(cfg, theta, omega, u_prev, delay)
        theta, omega = _advance(cfg, theta, omega, u_new, cfg.period - delay)
        return norms, theta, omega, u_new

    def _extend_et(self, samples: int) -> None:
        """Simulate the ET row up to (excluding) sampling instant ``samples``."""
        testbed = self.testbed
        theta, omega, u_prev = self._et_state
        for k in range(self._et_samples, samples):
            self._et_record[:3, k] = theta, omega, u_prev
            self._et_record[3, k], theta, omega, u_prev = self._sample(
                testbed.et_controller, testbed.config.et_delay, theta, omega, u_prev
            )
        self._et_state = theta, omega, u_prev
        self._et_samples = max(self._et_samples, samples)

    def _tt_rows(self, starts: np.ndarray) -> np.ndarray:
        """Last sample above ``Eth`` of the TT rows starting at ``starts``
        (ascending), or -1 for a row that never exceeds it."""
        testbed, cfg = self.testbed, self.testbed.config
        last_above = np.full(starts.size, -1)
        theta = omega = u_prev = np.empty(0)
        for k in range(int(starts[0]), self.max_samples):
            joined = int(np.searchsorted(starts, k, side="right"))
            if joined > theta.size:
                count = joined - theta.size
                theta_k, omega_k, u_k = self._et_record[:3, k]
                theta = np.concatenate([theta, np.full(count, theta_k)])
                omega = np.concatenate([omega, np.full(count, omega_k)])
                u_prev = np.concatenate([u_prev, np.full(count, u_k)])
                if starts.size == 1:
                    # A lone rig runs on numpy scalars, several times
                    # faster than on length-1 arrays; same arithmetic.
                    theta, omega, u_prev = theta[0], omega[0], u_prev[0]
            norms, theta, omega, u_prev = self._sample(
                testbed.tt_controller, cfg.tt_delay, theta, omega, u_prev
            )
            last_above[: theta.size][norms > cfg.threshold] = k
        return last_above


# ET closed-loop poles for the default testbed: a lightly damped pair
# (magnitude 0.94, angle 0.30 rad) plus a fast real pole for the held
# input.  Chosen so the pure-ET response time lands near the paper's
# measured 2.16 s while the swing builds enough momentum to produce the
# non-monotonic dwell/wait relation of Figure 3.
DEFAULT_ET_POLES = (
    0.94 * np.exp(1j * 0.30),
    0.94 * np.exp(-1j * 0.30),
    0.2,
)

# TT LQR weights for the default testbed: aggressive enough that the
# pure-TT response time matches the paper's measured 0.68 s.
DEFAULT_TT_Q = np.diag([40.0, 0.4])
DEFAULT_TT_R = np.array([[0.08]])


def default_servo_testbed(config: Optional[ServoRigConfig] = None) -> ServoTestbed:
    """Build the tuned testbed that reproduces the paper's Figure 3 shape."""
    if config is None:
        config = ServoRigConfig()
    plant = config.plant()
    et = design_mode_controller_poles(
        plant.model,
        period=config.period,
        delay=config.et_delay,
        poles=DEFAULT_ET_POLES,
    )
    tt = design_mode_controller(
        plant.model,
        period=config.period,
        delay=config.tt_delay,
        q=DEFAULT_TT_Q,
        r=DEFAULT_TT_R,
    )
    return ServoTestbed(config=config, et_controller=et, tt_controller=tt)


__all__ = [
    "DEFAULT_ET_POLES",
    "DEFAULT_TT_Q",
    "DEFAULT_TT_R",
    "NonlinearServoRig",
    "ServoRigConfig",
    "ServoSweep",
    "ServoTestbed",
    "default_servo_testbed",
]
