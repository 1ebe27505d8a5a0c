"""Pluggable network backends for the co-simulator.

The frozen contract lives in :mod:`repro.sim.network.protocol`
(:class:`NetworkModel`, with plain-tuple :data:`Submission` and
:data:`Delivery` records), the decorator registry in
:mod:`repro.sim.network.registry`, and the executable contract in
:mod:`repro.sim.network.conformance`.  Both co-simulation kernels drive
every backend through that one interface.  Importing this package
registers the bundled backends:

========== ============================================================
name       model
========== ============================================================
analytic   constant design-time delays
flexray    cycle-accurate FlexRay bus (i.i.d. frame loss built in)
can        priority-arbitrated non-preemptive CAN bus
========== ============================================================

plus the composable loss layer (:class:`IIDLoss`,
:class:`GilbertElliottLoss`, :class:`LossyNetwork`).
"""

from repro.sim.network.protocol import Delivery, NetworkModel, Submission
from repro.sim.network.registry import (
    NetworkSpec,
    UnknownNetworkError,
    build_network,
    get_network,
    network_names,
    network_table,
    networks,
    register_network,
    unregister_network,
)
from repro.sim.network.loss import (
    GilbertElliottLoss,
    IIDLoss,
    LossProcess,
    LossyNetwork,
)

# Importing the backend modules runs their @register_network hooks.
from repro.sim.network.analytic import AnalyticNetwork
from repro.sim.network.can import CanBusNetwork
from repro.sim.network.flexray import FlexRayNetwork
from repro.sim.network.conformance import ConformanceError, check_network_model

__all__ = [
    "AnalyticNetwork",
    "CanBusNetwork",
    "ConformanceError",
    "Delivery",
    "FlexRayNetwork",
    "GilbertElliottLoss",
    "IIDLoss",
    "LossProcess",
    "LossyNetwork",
    "NetworkModel",
    "NetworkSpec",
    "Submission",
    "UnknownNetworkError",
    "build_network",
    "check_network_model",
    "get_network",
    "network_names",
    "network_table",
    "networks",
    "register_network",
    "unregister_network",
]
