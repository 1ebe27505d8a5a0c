"""A co-simulable CAN bus backend.

Promotes the static response-time analysis of
:mod:`repro.baselines.can_rta` into a live transport the co-simulation
kernels can drive: non-preemptive fixed-priority arbitration where the
lowest frame identifier wins the bus, one frame on the wire at a time,
wire time charged per frame exactly as the RTA charges ``C`` (the same
:func:`~repro.baselines.can_rta.frame_transmission_time` formula).  The
property tests assert the promotion is sound: every simulated wait is
bounded by the analytic worst case whenever the RTA declares the
message set schedulable.

The model is event-driven and lazy: :meth:`CanBusNetwork.event_submit`
only queues, and :meth:`CanBusNetwork.event_advance` replays
arbitration decisions up to the barrier.  Decisions depend solely on
the pending set (identifier, release instant, submission order), so
the transport is fully deterministic.

Both co-simulation kernels share one arbitration loop.  The event
interface is a thin wrapper over a tuple-level core —
:meth:`CanBusNetwork._enqueue` and :meth:`CanBusNetwork._advance` —
which the batch kernel's ``"can"`` delay source drives directly, with
each application's wire time computed once instead of per message.
Pending entries stay keyed by message name, so a bus left mid-run by
either kernel is valid for the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.baselines.can_rta import (
    CAN_FRAME_OVERHEAD_BITS,
    frame_transmission_time,
)
from repro.sim.network.protocol import (
    Delivery,
    NetworkCapabilities,
    NetworkModel,
    Submission,
)
from repro.sim.network.registry import register_network
from repro.utils.validation import check_positive

#: Pending-queue entry: ``(frame_id, release_time, sequence, name,
#: wire_time)`` — tuple order IS the arbitration order (lowest
#: identifier wins; FIFO per identifier via the sequence number).
_Entry = Tuple[int, float, int, str, float]


@dataclass
class CanBusNetwork(NetworkModel):
    """Priority-arbitrated single-wire CAN bus.

    Attributes
    ----------
    bit_time:
        Seconds per bit; the default 2 microseconds is a 500 kbit/s
        automotive CAN bus.
    overhead_bits:
        Non-payload bits charged per frame (see
        :data:`repro.baselines.can_rta.CAN_FRAME_OVERHEAD_BITS`).
    """

    bit_time: float = 2e-6
    overhead_bits: int = CAN_FRAME_OVERHEAD_BITS
    delivered: int = 0
    clamped: int = 0
    busy_time: float = 0.0
    _pending: List[_Entry] = field(init=False, repr=False, default_factory=list)
    _transmitting: Optional[_Entry] = field(init=False, repr=False, default=None)
    _busy_until: float = field(init=False, repr=False, default=0.0)
    _sequence: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        check_positive(self.bit_time, "bit_time")
        if self.overhead_bits < 0:
            raise ValueError(f"overhead_bits must be >= 0, got {self.overhead_bits}")

    def wire_time(self, payload_bits: int) -> float:
        """Transmission time of one frame — the RTA's ``C``."""
        return frame_transmission_time(
            payload_bits, self.bit_time, self.overhead_bits
        )

    # -- tuple core (shared by both kernels) -------------------------------

    def _enqueue(self, frame_id: int, release: float, name: str, wire: float) -> None:
        """Queue one frame whose wire time ``wire`` is already known."""
        self._pending.append((frame_id, release, self._sequence, name, wire))
        self._sequence += 1

    def _advance(self, time: float) -> List[Tuple[str, float, float]]:
        """Replay arbitration up to ``time``; report every completed
        frame as ``(name, release_time, delivery_time)``."""
        out: List[Tuple[str, float, float]] = []
        pending = self._pending
        while True:
            transmitting = self._transmitting
            if transmitting is not None:
                finish = transmitting[4]
                if finish > time:
                    break
                # Frame completes within the window: the wire frees at
                # `finish` and the delivery is reported at that instant.
                self._transmitting = None
                self._busy_until = finish
                self.delivered += 1
                out.append((transmitting[3], transmitting[1], finish))
            if not pending:
                break
            earliest = min(entry[1] for entry in pending)
            start = max(self._busy_until, earliest)
            if start >= time:
                # The next arbitration instant lies at/after the
                # barrier; deferring it is lossless (the winner is a
                # pure function of the pending set at `start`).
                break
            winner = min([entry for entry in pending if entry[1] <= start])
            pending.remove(winner)
            frame_id, release, seq, name, wire = winner
            self.busy_time += wire
            self._transmitting = (frame_id, release, seq, name, start + wire)
        return out

    # -- event interface ---------------------------------------------------

    def event_submit(
        self, time: float, window_end: float, submissions: Sequence[Submission]
    ) -> None:
        for sub in submissions:
            self._enqueue(
                sub.spec.frame_id,
                sub.release_time,
                sub.name,
                self.wire_time(sub.spec.payload_bits),
            )

    def event_advance(self, time: float) -> List[Delivery]:
        return [
            Delivery(name=name, release_time=release, delivery_time=finish)
            for name, release, finish in self._advance(time)
        ]

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        self._pending = []
        self._transmitting = None
        self._busy_until = 0.0
        self._sequence = 0
        self.delivered = 0
        self.clamped = 0
        self.busy_time = 0.0

    def statistics(self) -> Dict[str, Any]:
        in_flight = int(self._transmitting is not None)
        return {
            "delivered": self.delivered,
            "clamped": self.clamped,
            "pending": len(self._pending) + in_flight,
            "busy_time": self.busy_time,
        }

    def capabilities(self) -> NetworkCapabilities:
        # The "can" strategy drives this bus's own tuple core, so it
        # needs no pristine-bus check.  Only the exact class claims it:
        # a subclass could override the transport the core implements,
        # and opts back in by overriding capabilities().
        return NetworkCapabilities(
            deterministic=True,
            analytic_delays=False,
            batch_strategy="can" if type(self) is CanBusNetwork else None,
            loss="none",
        )


@register_network(
    "can",
    summary="priority-arbitrated CAN bus (non-preemptive, lowest frame id wins)",
    deterministic=True,
    analytic_delays=False,
    batch="can",
    loss="iid",
)
def _build_can(
    *,
    bus: Any = None,
    loss_rate: float = 0.0,
    seed: int = 0,
    traffic: Any = None,
) -> Any:
    """Factory: ``bus`` must be ``None`` (the CAN model has no FlexRay
    geometry to consume); a nonzero ``loss_rate`` wraps the bus in a
    seeded i.i.d. loss process."""
    if traffic is not None:
        raise ValueError(
            "the CAN backend does not take BackgroundTraffic; add "
            "contending frames as applications instead"
        )
    if bus is not None:
        raise ValueError(
            "the CAN backend has no FlexRay bus geometry; leave the "
            "scenario's `bus` unset for network='can'"
        )
    network: Any = CanBusNetwork()
    if loss_rate:
        from repro.sim.network.loss import IIDLoss, LossyNetwork

        network = LossyNetwork(inner=network, loss=IIDLoss(rate=loss_rate, seed=seed))
    return network


__all__ = ["CanBusNetwork"]
