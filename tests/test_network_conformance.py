"""Conformance kit over every bundled network backend (ISSUE 9).

``check_network_model`` is the executable form of the frozen backend
contract; this suite runs it against each bundled backend family —
explicitly constructed *and* registry-built — so any protocol drift
fails here before a co-simulation silently diverges.  A deliberately
broken model proves the kit actually rejects violations.
"""

import dataclasses

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
            dataclasses.replace(d, release_time=d.release_time + 1.0)
            for d in deliveries
        ]


class _TimeTravel(AnalyticNetwork):
    """Broken on purpose: delivers before the submission's release."""

    def event_advance(self, time):
        deliveries = super().event_advance(time)
        return [
            dataclasses.replace(d, delivery_time=d.release_time - 1.0)
            for d in deliveries
        ]


class _StickyReset(AnalyticNetwork):
    """Broken on purpose: ``reset`` leaves delivered counts behind, and
    the pending queue replays stale messages after rewind."""

    def reset(self):
        pass  # never clears _pending / delivered


@pytest.mark.parametrize(
    "broken", [_DroppedSubmission, _TimeTravel, _StickyReset]
)
def test_kit_rejects_broken_models(broken):
    with pytest.raises(ConformanceError):
        check_network_model(lambda: broken())


class _ClaimsCan(AnalyticNetwork):
    """Broken on purpose: claims the ``"can"`` strategy, whose batch
    source drives a CAN bus's tuple core, without being a CAN bus."""

    def capabilities(self):
        return dataclasses.replace(super().capabilities(), batch_strategy="can")


class _WrapperClaimsCan(LossyNetwork):
    """Broken on purpose: a wrapper subclass around a real bus claims
    ``"can"``, but the batch source would bypass its overrides."""

    def capabilities(self):
        return dataclasses.replace(super().capabilities(), batch_strategy="can")


@pytest.mark.parametrize(
    "impostor",
    [
        _ClaimsCan,
        lambda: _WrapperClaimsCan(
            inner=CanBusNetwork(), loss=IIDLoss(rate=0.1, seed=0)
        ),
    ],
    ids=["not-a-bus", "wrapper-subclass"],
)
def test_kit_rejects_a_can_claim_without_a_can_bus(impostor):
    with pytest.raises(ConformanceError, match="can batch strategy"):
        check_network_model(impostor)


class _ClaimsFlexRay(AnalyticNetwork):
    """Broken on purpose: claims the ``"flexray"`` strategy, whose batch
    source drives a FlexRay bus's tuple core, without being one."""

    def capabilities(self):
        return dataclasses.replace(super().capabilities(), batch_strategy="flexray")


class _DuckFlexRay:
    """Broken on purpose: a duck type that carries a real FlexRay bus
    and delegates to a stock network, yet is not a ``FlexRayNetwork``,
    so the source would bypass it."""

    def __init__(self):
        self.inner = FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config()))
        self.bus = self.inner.bus

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize(
    "impostor", [_ClaimsFlexRay, _DuckFlexRay], ids=["not-a-bus", "duck"]
)
def test_kit_rejects_a_flexray_claim_without_a_flexray_network(impostor):
    assert impostor().capabilities().batch_strategy == "flexray"
    with pytest.raises(ConformanceError, match="flexray batch strategy"):
        check_network_model(impostor)


def test_kit_rejects_missing_surface():
    class NotANetwork:
        pass

    with pytest.raises(ConformanceError, match="implements"):
        check_network_model(lambda: NotANetwork())


def test_kit_requires_fresh_instances():
    shared = AnalyticNetwork()
    with pytest.raises(ConformanceError, match="fresh"):
        check_network_model(lambda: shared)
