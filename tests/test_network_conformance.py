"""Conformance kit over every bundled network backend (ISSUE 9).

``check_network_model`` is the executable form of the frozen backend
contract; this suite runs it against each bundled backend family —
explicitly constructed *and* registry-built — so any protocol drift
fails here before a co-simulation silently diverges.  A deliberately
broken model proves the kit actually rejects violations.
"""

import pytest

from repro.flexray import FlexRayBus, paper_bus_config
from repro.sim.network import (
    AnalyticNetwork,
    CanBusNetwork,
    ConformanceError,
    FlexRayNetwork,
    GilbertElliottLoss,
    IIDLoss,
    LossyNetwork,
    build_network,
    check_network_model,
    network_names,
)

FACTORIES = {
    "analytic": lambda: AnalyticNetwork(),
    "flexray": lambda: FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config())),
    "flexray-lossy": lambda: FlexRayNetwork(
        bus=FlexRayBus(config=paper_bus_config()), loss_rate=0.3, loss_seed=7
    ),
    "can": lambda: CanBusNetwork(),
    "can-iid-loss": lambda: LossyNetwork(
        inner=CanBusNetwork(), loss=IIDLoss(rate=0.25, seed=11)
    ),
    "can-gilbert-elliott": lambda: LossyNetwork(
        inner=CanBusNetwork(), loss=GilbertElliottLoss(seed=3)
    ),
    "analytic-lossy": lambda: LossyNetwork(
        inner=AnalyticNetwork(), loss=IIDLoss(rate=0.5, seed=1)
    ),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_bundled_backend_conforms(name):
    check_network_model(FACTORIES[name])


@pytest.mark.parametrize("name", sorted(network_names()))
def test_registry_built_backend_conforms(name):
    """Every registered backend passes as the registry builds it."""
    check_network_model(lambda: build_network(name, seed=0))


@pytest.mark.parametrize("name", sorted(network_names()))
def test_registry_built_lossy_backend_conforms(name):
    """The registry's ``loss_rate`` knob also yields conformant models
    (analytic documents ignoring it; flexray/can wire up IID loss)."""
    check_network_model(lambda: build_network(name, loss_rate=0.2, seed=5))


class _DroppedSubmission(AnalyticNetwork):
    """Broken on purpose: reports deliveries for a message never sent."""

    def event_advance(self, time):
        deliveries = super().event_advance(time)
        return [
            (name, release + 1.0, delivery, lost)
            for name, release, delivery, lost in deliveries
        ]


class _TimeTravel(AnalyticNetwork):
    """Broken on purpose: delivers before the submission's release."""

    def event_advance(self, time):
        deliveries = super().event_advance(time)
        return [
            (name, release, release - 1.0, lost)
            for name, release, _, lost in deliveries
        ]


class _ListDeliveries(AnalyticNetwork):
    """Broken on purpose: reports deliveries as lists, not tuples."""

    def event_advance(self, time):
        return [list(d) for d in super().event_advance(time)]


class _StickyReset(AnalyticNetwork):
    """Broken on purpose: ``reset`` leaves delivered counts behind, and
    the pending queue replays stale messages after rewind."""

    def reset(self):
        pass  # never clears _pending / delivered


@pytest.mark.parametrize(
    "broken", [_DroppedSubmission, _TimeTravel, _ListDeliveries, _StickyReset]
)
def test_kit_rejects_broken_models(broken):
    with pytest.raises(ConformanceError):
        check_network_model(lambda: broken())


def test_kit_rejects_missing_surface():
    class NotANetwork:
        pass

    with pytest.raises(ConformanceError, match="implements"):
        check_network_model(lambda: NotANetwork())


def test_kit_requires_fresh_instances():
    shared = AnalyticNetwork()
    with pytest.raises(ConformanceError, match="fresh"):
        check_network_model(lambda: shared)
