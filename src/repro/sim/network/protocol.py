"""The frozen network-backend contract of the co-simulator.

Every network model the co-simulation kernels drive — bundled or
third-party — implements this protocol, and it is the only way either
kernel talks to a network: the event kernel and the batch kernel make
the same calls, in the same order, on plain tuples.

* A **submission** is ``(name, frame, uses_tt, release)``: the
  application, its :class:`~repro.flexray.frame.FrameSpec`, whether the
  message goes over the application's owned TT slot, and its release
  instant.
* A **delivery** is ``(name, release, delivery, lost)``.

The methods:

* the **event interface**: :meth:`NetworkModel.event_submit` queues the
  submissions released at a barrier (plus anything the backend wants to
  inject for the window, e.g. background traffic), and
  :meth:`NetworkModel.event_advance` runs the transport up to a barrier
  and reports every delivery.  Both kernels resolve multi-rate fleets
  through this pair.
* the **shared-period hook**: :meth:`NetworkModel.sample_delays`
  answers one whole sampling interval in a single call.  Both kernels
  resolve shared-period fleets through it.  The default implementation
  is built on the event interface, so backends only override it when
  they need a different formulation:
  :class:`~repro.sim.network.analytic.AnalyticNetwork` does, to report
  its delay constants exactly.
* **hooks**: :meth:`NetworkModel.on_slot_change` hears TT-slot
  hand-overs and :meth:`NetworkModel.event_clamped` each interval whose
  message never arrived.
* **lifecycle**: :meth:`NetworkModel.reset` returns the backend to its
  just-constructed state (idempotent), and
  :meth:`NetworkModel.statistics` reports JSON-safe counters.

The kernels stay duck-typed (they never ``isinstance`` a network against
this ABC), so any object with these methods runs; the ABC is the
documented way to build a new backend, and
:func:`repro.sim.network.conformance.check_network_model` is the
executable version of this contract.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.flexray.frame import FrameSpec

#: ``(name, frame, uses_tt, release)``: one control message ready for
#: the bus at a sampling instant.
Submission = Tuple[str, FrameSpec, bool, float]

#: ``(name, release, delivery, lost)``: one message's fate, reported
#: through the event interface.
Delivery = Tuple[str, float, float, bool]


class NetworkModel(abc.ABC):
    """Abstract base of co-simulable network backends.

    Subclasses must implement the event interface
    (:meth:`event_submit`/:meth:`event_advance`) and the lifecycle
    (:meth:`reset`/:meth:`statistics`); :meth:`sample_delays`,
    :meth:`on_slot_change` and :meth:`event_clamped` have functional
    defaults.
    """

    # -- transport ---------------------------------------------------------

    @abc.abstractmethod
    def event_submit(
        self, time: float, window_end: float, submissions: Sequence[Submission]
    ) -> None:
        """Queue the messages released at ``time``.

        ``window_end`` is the next barrier instant — backends that
        synthesize their own traffic (background streams) generate it
        for ``[time, window_end)`` here.  The transport must not
        advance; deliveries are reported by :meth:`event_advance`.
        """

    @abc.abstractmethod
    def event_advance(self, time: float) -> List[Delivery]:
        """Run the transport up to ``time``; report every delivery.

        Calls arrive with non-decreasing ``time``.  Per application,
        reported delivery instants must be non-decreasing across calls
        and never earlier than the message's release.  State-dependent
        transports (FlexRay, CAN) report deliveries at the first barrier
        at/after the delivery instant; analytic transports may report a
        *future* delivery instant as soon as it is determined.  The
        kernels match deliveries against their in-flight records, so
        stale deliveries (messages that missed their whole interval) may
        be reported late without harm.
        """

    def sample_delays(
        self, time: float, period: float, submissions: Sequence[Submission]
    ) -> Dict[str, float]:
        """Sensor-to-actuator delay for one whole sampling interval.

        Default implementation in terms of the event interface: submit,
        advance one period, clamp whatever did not arrive.  Lost frames
        are reported as ``inf`` (the kernel holds the previous input
        for the whole period and never latches the lost command).
        """
        self.event_submit(time, time + period, submissions)
        delays: Dict[str, float] = {}
        fresh = time - 1e-12
        for name, release, delivery, lost in self.event_advance(time + period):
            if lost:
                delays[name] = float("inf")
            elif release >= fresh:
                delays[name] = min(delivery - time, period)
        for name, _, _, _ in submissions:
            if name not in delays:
                delays[name] = period
                self.event_clamped()
        return delays

    def on_slot_change(self, slot: int, spec: Optional[FrameSpec]) -> None:
        """Told whenever TT-slot ownership changes (spec None = released).

        Backends without slot semantics (CAN, analytic constants)
        inherit this no-op.
        """

    def event_clamped(self) -> None:
        """A message missed its whole sampling interval (kernel hook)."""
        self.clamped = getattr(self, "clamped", 0) + 1

    # -- lifecycle ---------------------------------------------------------

    @abc.abstractmethod
    def reset(self) -> None:
        """Return to the just-constructed state (idempotent)."""

    @abc.abstractmethod
    def statistics(self) -> Dict[str, Any]:
        """JSON-safe counters accumulated since construction/reset."""


__all__ = [
    "Delivery",
    "NetworkModel",
    "Submission",
]
