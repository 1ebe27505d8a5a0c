"""The cycle-accurate FlexRay network backend.

The ``loss_rate`` machinery delegates to
:class:`~repro.sim.network.loss.IIDLoss`, bit-for-bit: the same
``np.random.default_rng(loss_seed)`` stream, one draw per delivered
control message, drawn *before* the staleness check — every historical
trace replays unchanged.

Both co-simulation kernels drive one cycle walk.  The event interface
queues control messages on the bus's tuple-level core, keyed by
application name (:meth:`~repro.flexray.bus.FlexRayBus._enqueue_tt`,
:meth:`~repro.flexray.dynamic_segment.DynamicSegment._enqueue`), and
wraps :meth:`~repro.flexray.bus.FlexRayBus._advance`, which the batch
kernel's ``"flexray"`` delay source drives directly.  Background traffic
stays :class:`~repro.flexray.frame.Message` objects, stamped on delivery
and never reported, so a bus left mid-run by either kernel is valid for
the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.flexray.bus import FlexRayBus
from repro.flexray.dynamic_segment import DynamicSegment
from repro.flexray.frame import Message
from repro.flexray.static_segment import StaticSchedule
from repro.sim.network.loss import IIDLoss
from repro.sim.network.protocol import (
    Delivery,
    NetworkCapabilities,
    NetworkModel,
)
from repro.sim.network.registry import register_network
from repro.sim.traffic import BackgroundTraffic


@dataclass
class FlexRayNetwork(NetworkModel):
    """Delays from a cycle-accurate FlexRay bus simulation.

    Messages that fail to arrive within one sampling period are clamped
    to ``period`` (the actuator holds the previous input for the whole
    interval) and counted in :attr:`clamped`.  Optional background
    traffic (see :mod:`repro.sim.traffic`) contends for the dynamic
    segment alongside the control messages.
    """

    bus: FlexRayBus
    traffic: Optional["BackgroundTraffic"] = None
    loss_rate: float = 0.0
    loss_seed: int = 0
    clamped: int = 0
    lost: int = 0
    _loss: Optional[IIDLoss] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must lie in [0, 1), got {self.loss_rate}")
        if self.loss_rate > 0.0:
            self._loss = IIDLoss(rate=self.loss_rate, seed=self.loss_seed)

    def on_slot_change(self, slot, spec):
        if spec is None:
            self.bus.release_slot(slot)
        else:
            self.bus.release_slot(slot)
            self.bus.grant_slot(slot, spec)

    # -- event interface (multi-rate kernels) -----------------------------

    def event_submit(self, time, window_end, submissions):
        """Queue background traffic for ``[time, window_end)`` plus the
        control messages released at ``time``, keyed by application
        name on the bus's tuple core; the bus advances later."""
        bus = self.bus
        if self.traffic is not None:
            for message in self.traffic.messages_between(time, window_end):
                bus.submit_et(message)
        dynamic = bus.dynamic
        for sub in submissions:
            frame_id = sub.spec.frame_id
            if sub.uses_tt:
                bus._enqueue_tt(frame_id, sub.release_time, sub.name)
            else:
                dynamic._enqueue(
                    frame_id, sub.release_time, sub.name, dynamic.minislots_of(sub.spec)
                )

    def event_advance(self, time):
        """Run whole bus cycles up to ``time``; report every control
        delivery (the kernel matches releases against its in-flight
        records), each drawing the i.i.d. loss stream once in delivery
        order.  Background messages are stamped and not reported."""
        out = []
        loss = self._loss
        for key, release, delivery in self.bus._advance(time):
            if isinstance(key, Message):
                key.delivery_time = delivery
                continue
            lost = loss is not None and loss.sample()
            if lost:
                self.lost += 1
            out.append(
                Delivery(
                    name=key, release_time=release, delivery_time=delivery, lost=lost
                )
            )
        return out

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Fresh bus (same configuration), rewound loss stream."""
        self.bus = FlexRayBus(config=self.bus.config, bit_time=self.bus.bit_time)
        self.clamped = 0
        self.lost = 0
        if self._loss is not None:
            self._loss.reset()

    def statistics(self) -> Dict[str, Any]:
        stats = self.bus.statistics
        return {
            "cycles": stats.cycles,
            "tt_deliveries": stats.tt_deliveries,
            "et_deliveries": stats.et_deliveries,
            "unused_static_slots": stats.unused_static_slots,
            "clamped": self.clamped,
            "lost": self.lost,
        }

    def capabilities(self) -> NetworkCapabilities:
        # The "flexray" strategy drives this bus's own tuple core and
        # draws this instance's i.i.d. loss stream, so any bus state is
        # fine.  Background traffic keeps the live path (the batch grids
        # do not reproduce its windows), and so do subclasses and
        # subclassed bus parts: they could override the cycle walk the
        # core implements, and opt back in by overriding capabilities().
        bus = self.bus
        batch = None
        if (
            type(self) is FlexRayNetwork
            and self.traffic is None
            and type(bus) is FlexRayBus
            and type(bus.static) is StaticSchedule
            and type(bus.dynamic) is DynamicSegment
        ):
            batch = "flexray"
        return NetworkCapabilities(
            deterministic=self.loss_rate == 0.0,
            analytic_delays=False,
            batch_strategy=batch,
            loss="iid" if self.loss_rate > 0.0 else "none",
        )


@register_network(
    "flexray",
    summary="cycle-accurate FlexRay bus (TDMA static segment + minislot dynamic segment)",
    deterministic=True,
    analytic_delays=False,
    batch="flexray",
    loss="iid",
)
def _build_flexray(
    *,
    bus: Any = None,
    loss_rate: float = 0.0,
    seed: int = 0,
    traffic: Optional[BackgroundTraffic] = None,
) -> FlexRayNetwork:
    """Factory: ``bus`` is a :class:`~repro.flexray.params.FlexRayConfig`
    (the paper's configuration when ``None``); ``loss_rate``/``seed``
    drive the historical i.i.d. loss stream."""
    if bus is None:
        from repro.flexray.params import paper_bus_config

        bus = paper_bus_config()
    return FlexRayNetwork(
        bus=FlexRayBus(config=bus),
        traffic=traffic,
        loss_rate=loss_rate,
        loss_seed=seed,
    )


__all__ = ["FlexRayNetwork"]
