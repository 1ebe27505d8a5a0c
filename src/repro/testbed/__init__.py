"""Hardware-substitute testbed (the paper's Figure 2 servo rig).

The paper measures its Figure 3 dwell/wait relation on a physical servo
motor rig.  We have no such hardware, so this package provides a
high-fidelity *simulated* rig: nonlinear pendulum-on-motor-shaft dynamics,
torque saturation of the servo amplifier, optional encoder quantisation,
zero-order-hold actuation with mode-dependent sensor-to-actuator delay,
and Runge-Kutta integration between sampling instants.

DESIGN.md records the substitution; the relevant behaviours (the
non-monotonic dwell/wait relation and the TT/ET response-time gap) are
properties of the closed-loop rig, which this simulator reproduces.
"""

from repro.testbed.servo import (
    NonlinearServoRig,
    ServoRigConfig,
    ServoSweep,
    ServoTestbed,
    default_servo_testbed,
)

__all__ = [
    "NonlinearServoRig",
    "ServoRigConfig",
    "ServoSweep",
    "ServoTestbed",
    "default_servo_testbed",
]
