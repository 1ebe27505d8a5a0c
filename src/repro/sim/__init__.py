"""Co-simulation substrate (TrueTime substitute).

Discrete-event kernel, periodic task/ECU model, non-preemptive TT-slot
arbiter, the Figure 1 threshold-switching runtime, the multi-application
co-simulator, the pluggable network-backend registry
(:mod:`repro.sim.network`), and trace recording for Figure 5.
"""

from repro.sim.arbiter import SlotClient, SlotState, TTSlotArbiter
from repro.sim.batch import batch_capability
from repro.sim.cosim import (
    KERNELS,
    CoSimApplication,
    CoSimulator,
)
from repro.sim.events import EventQueue
from repro.sim.network import (
    AnalyticNetwork,
    CanBusNetwork,
    Delivery,
    FlexRayNetwork,
    GilbertElliottLoss,
    IIDLoss,
    LossyNetwork,
    NetworkCapabilities,
    NetworkModel,
    Submission,
    build_network,
    check_network_model,
    network_names,
    register_network,
)
from repro.sim.runtime import CommState, DisturbanceRecord, SwitchingRuntime
from repro.sim.stats import Welford, t_critical_95
from repro.sim.stepper import (
    GLOBAL_ZOH_CACHE,
    DelayedStepper,
    PlantStepperBank,
    ZOHCache,
)
from repro.sim.tasks import ApplicationTasks, Ecu, PeriodicTask, simple_application_tasks
from repro.sim.trace import AppTrace, SimulationTrace
from repro.sim.traffic import BackgroundTraffic, TrafficStream, heavy_background_traffic

__all__ = [
    "AnalyticNetwork",
    "AppTrace",
    "ApplicationTasks",
    "BackgroundTraffic",
    "TrafficStream",
    "heavy_background_traffic",
    "CanBusNetwork",
    "CoSimApplication",
    "CoSimulator",
    "CommState",
    "DelayedStepper",
    "Delivery",
    "DisturbanceRecord",
    "Ecu",
    "EventQueue",
    "FlexRayNetwork",
    "GLOBAL_ZOH_CACHE",
    "GilbertElliottLoss",
    "IIDLoss",
    "KERNELS",
    "LossyNetwork",
    "NetworkCapabilities",
    "NetworkModel",
    "batch_capability",
    "build_network",
    "check_network_model",
    "network_names",
    "register_network",
    "PeriodicTask",
    "PlantStepperBank",
    "SimulationTrace",
    "SlotClient",
    "SlotState",
    "Submission",
    "SwitchingRuntime",
    "TTSlotArbiter",
    "Welford",
    "ZOHCache",
    "simple_application_tasks",
    "t_critical_95",
]
