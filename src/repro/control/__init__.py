"""Control-theory substrate: LTI models, discretisation, LQR, plants.

This package provides everything the paper's Section II-B relies on:
plant modelling (Eq. 1), exact ZOH discretisation with sensor-to-actuator
delay, optimal state-feedback design for the ET and TT communication
modes, a plant zoo, disturbance processes, and transient analysis.
"""

from repro.control.analysis import (
    SettlingError,
    TransientProfile,
    norm_trajectory,
    settle_index,
    settling_time,
    settling_times,
    transient_profile,
)
from repro.control.controller import (
    ModeController,
    SwitchedApplication,
    design_mode_controller,
    design_switched_application,
)
from repro.control.dare import LqrResult, RiccatiError, dlqr, solve_dare, solve_dare_iterative
from repro.control.observer import (
    LuenbergerObserver,
    ObserverDesignError,
    design_observer_lqe,
    design_observer_poles,
)
from repro.control.pole_placement import (
    PolePlacementError,
    design_mode_controller_poles,
    place_gain,
)
from repro.control.discretization import discretize, discretize_with_delay, zoh_integrals
from repro.control.disturbance import (
    DisturbanceEvent,
    DisturbanceProcess,
    OneShotDisturbance,
    PeriodicDisturbance,
    SporadicDisturbance,
    validate_deadline_against_arrivals,
)
from repro.control.lti import (
    AugmentedStateSpace,
    ContinuousStateSpace,
    DelayedStateSpace,
    simulate_autonomous,
)
from repro.control.plants import (
    CASE_STUDY_PLANTS,
    PLANT_REGISTRY,
    PlantDefinition,
    make_plant,
    servo_rig,
)
from repro.utils.linalg import pin_blas_threads

# After the imports above have loaded scipy.linalg, and with it scipy's
# OpenBLAS: every process that imports repro, pool and fabric workers
# included, solves its at most 5x5 problems on one BLAS thread.
pin_blas_threads()

__all__ = [
    "AugmentedStateSpace",
    "CASE_STUDY_PLANTS",
    "ContinuousStateSpace",
    "DelayedStateSpace",
    "DisturbanceEvent",
    "DisturbanceProcess",
    "LqrResult",
    "LuenbergerObserver",
    "ModeController",
    "ObserverDesignError",
    "design_observer_lqe",
    "design_observer_poles",
    "OneShotDisturbance",
    "PolePlacementError",
    "PLANT_REGISTRY",
    "PeriodicDisturbance",
    "PlantDefinition",
    "RiccatiError",
    "SettlingError",
    "SporadicDisturbance",
    "SwitchedApplication",
    "TransientProfile",
    "design_mode_controller",
    "design_mode_controller_poles",
    "design_switched_application",
    "discretize",
    "place_gain",
    "discretize_with_delay",
    "dlqr",
    "make_plant",
    "norm_trajectory",
    "servo_rig",
    "settle_index",
    "settling_time",
    "settling_times",
    "simulate_autonomous",
    "solve_dare",
    "solve_dare_iterative",
    "transient_profile",
    "validate_deadline_against_arrivals",
    "zoh_integrals",
]
