"""The cycle-accurate FlexRay network backend.

The ``loss_rate`` machinery delegates to
:class:`~repro.sim.network.loss.IIDLoss`, bit-for-bit: the same
``np.random.default_rng(loss_seed)`` stream, one draw per delivered
control message, drawn *before* the staleness check — every historical
trace replays unchanged.

Both co-simulation kernels drive the bus through this network's event
interface, which queues control messages on the bus's tuple-level core
keyed by application name
(:meth:`~repro.flexray.bus.FlexRayBus._enqueue_tt`,
:meth:`~repro.flexray.dynamic_segment.DynamicSegment._enqueue`, with
each payload size's minislot count computed once) and wraps
:meth:`~repro.flexray.bus.FlexRayBus._advance`.  Background traffic
stays :class:`~repro.flexray.frame.Message` objects, stamped on delivery
and never reported, so a bus left mid-run by either kernel is valid for
the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.flexray.bus import FlexRayBus
from repro.flexray.frame import Message
from repro.sim.network.loss import IIDLoss
from repro.sim.network.protocol import NetworkModel
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
    #: payload bits -> minislots one dynamic-segment frame occupies
    _minislots: Dict[int, int] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

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

    # -- event interface ---------------------------------------------------

    def event_submit(self, time, window_end, submissions):
        """Queue background traffic for ``[time, window_end)`` plus the
        control messages released at ``time``, keyed by application
        name on the bus's tuple core; the bus advances later."""
        bus = self.bus
        if self.traffic is not None:
            for message in self.traffic.messages_between(time, window_end):
                bus.submit_et(message)
        dynamic = bus.dynamic
        minislots = self._minislots
        for name, frame, uses_tt, release in submissions:
            if uses_tt:
                bus._enqueue_tt(frame.frame_id, release, name)
                continue
            count = minislots.get(frame.payload_bits)
            if count is None:
                count = minislots[frame.payload_bits] = dynamic.minislots_of(frame)
            dynamic._enqueue(frame.frame_id, release, name, count)

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
            out.append((key, release, delivery, lost))
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


@register_network(
    "flexray",
    summary="cycle-accurate FlexRay bus (TDMA static segment + minislot dynamic segment)",
    deterministic=True,
    analytic_delays=False,
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
