"""The frozen network-backend contract of the co-simulator.

Every network model the co-simulation kernels can drive — bundled or
third-party — implements this protocol.  It formalizes what used to be
an undocumented duck-type shared by exactly two classes:

* the **event interface**: :meth:`NetworkModel.event_submit` queues the
  control messages released at a barrier (plus anything the backend
  wants to inject for the window, e.g. background traffic), and
  :meth:`NetworkModel.event_advance` runs the transport up to a barrier
  and reports every :class:`Delivery`.  The event kernel resolves
  multi-rate fleets exclusively through this pair.
* the **shared-period hook**: :meth:`NetworkModel.sample_delays`
  answers one whole sampling interval in a single call.  The event
  kernel resolves shared-period fleets through it.  The default
  implementation is built on the event interface, so backends only
  override it when they need a different formulation:
  :class:`~repro.sim.network.analytic.AnalyticNetwork` does, to report
  its delay constants exactly.
* **lifecycle**: :meth:`NetworkModel.reset` returns the backend to its
  just-constructed state (idempotent), :meth:`NetworkModel.statistics`
  reports JSON-safe counters, and :meth:`NetworkModel.capabilities`
  describes what the backend can do — most importantly which batch
  precomputation strategy (if any) it opts into, which replaces the
  old hardwired ``isinstance`` checks in
  :func:`repro.sim.batch.batch_capability`.

The kernels themselves stay duck-typed (they never ``isinstance`` a
network against this ABC), so pre-existing third-party models keep
running; the ABC is the documented way to build a new backend, and
:func:`repro.sim.network.conformance.check_network_model` is the
executable version of this contract.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.flexray.frame import FrameSpec

#: Batch precomputation strategies the co-simulator's fast path knows
#: how to run (see :func:`repro.sim.batch.batch_capability`).  A
#: backend's :meth:`NetworkModel.capabilities` may name one of these to
#: opt in; anything else runs on the live batch path (shared period) or
#: the event kernel (multi-rate).
BATCH_STRATEGIES = ("analytic", "flexray", "can")


def check_batch_strategy(strategy: Optional[str]) -> None:
    """Raise ``ValueError`` unless ``strategy`` is ``None`` or a member
    of :data:`BATCH_STRATEGIES`."""
    if strategy is not None and strategy not in BATCH_STRATEGIES:
        raise ValueError(
            f"unknown batch_strategy {strategy!r}; "
            f"expected one of {list(BATCH_STRATEGIES)} or None"
        )


#: Loss-model identifiers used in capability descriptors (extensible:
#: custom :class:`~repro.sim.network.loss.LossProcess` subclasses may
#: report their own ``kind``).
LOSS_KINDS = ("none", "iid", "gilbert-elliott")


@dataclass(frozen=True)
class Submission:
    """One control message ready for the bus at a sampling instant."""

    name: str
    spec: FrameSpec
    uses_tt: bool
    slot: Optional[int]
    release_time: float


@dataclass(frozen=True)
class Delivery:
    """One message's fate, reported through the event interface."""

    name: str
    release_time: float
    delivery_time: float
    lost: bool = False


@dataclass(frozen=True)
class NetworkCapabilities:
    """What one network-backend *instance* can do, for the kernels.

    Attributes
    ----------
    deterministic:
        Delivery instants are a pure function of the submissions — no
        randomness at all.  Seeded loss makes a backend reproducible
        but not deterministic in this sense.
    analytic_delays:
        Delays are state-independent per-mode constants (the design-
        time model); nothing on the wire depends on contention.
    batch_strategy:
        Which batch-kernel precomputation strategy covers this
        instance, or ``None`` (shared-period fleets then run the live
        batch path through :meth:`NetworkModel.sample_delays`,
        multi-rate fleets the event kernel).  Must be a member of
        :data:`BATCH_STRATEGIES`; claiming ``"analytic"`` requires
        ``tt_delay``/``et_delay`` constant-delay attributes with
        :class:`~repro.sim.network.analytic.AnalyticNetwork` semantics,
        claiming ``"flexray"`` requires a
        :class:`~repro.sim.network.flexray.FlexRayNetwork` on a
        :class:`~repro.flexray.bus.FlexRayBus` (the strategy drives the
        bus's tuple-level cycle core and draws the network's i.i.d. loss
        stream), and claiming ``"can"`` requires a
        :class:`~repro.sim.network.can.CanBusNetwork`, bare or as the
        ``inner`` of a stock
        :class:`~repro.sim.network.loss.LossyNetwork` (the strategy
        drives the bus's tuple-level arbitration core and draws the
        wrapper's loss process).
    loss:
        Loss-model identifier (``"none"``, ``"iid"``,
        ``"gilbert-elliott"``, or a custom process's ``kind``).
    """

    deterministic: bool = True
    analytic_delays: bool = False
    batch_strategy: Optional[str] = None
    loss: str = "none"

    def __post_init__(self):
        check_batch_strategy(self.batch_strategy)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class NetworkModel(abc.ABC):
    """Abstract base of co-simulable network backends.

    Subclasses must implement the event interface
    (:meth:`event_submit`/:meth:`event_advance`) and the lifecycle
    (:meth:`reset`/:meth:`statistics`/:meth:`capabilities`);
    :meth:`sample_delays`, :meth:`on_slot_change` and
    :meth:`event_clamped` have functional defaults.
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
        reported ``delivery_time`` values must be non-decreasing across
        calls and never earlier than the message's ``release_time``.
        State-dependent transports (FlexRay, CAN) report deliveries at
        the first barrier at/after the delivery instant; analytic
        transports may report a *future* delivery instant as soon as it
        is determined.  The kernel matches deliveries against its
        in-flight records, so stale deliveries (messages that missed
        their whole interval) may be reported late without harm.
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
        for delivery in self.event_advance(time + period):
            if delivery.lost:
                delays[delivery.name] = float("inf")
                continue
            if delivery.release_time >= time - 1e-12:
                delays[delivery.name] = min(delivery.delivery_time - time, period)
        for sub in submissions:
            if sub.name not in delays:
                delays[sub.name] = period
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

    @abc.abstractmethod
    def capabilities(self) -> NetworkCapabilities:
        """Describe this *instance* (state-dependent where it must be:
        a FlexRay network with background traffic reports
        ``batch_strategy=None`` while the same class traffic-free
        reports ``"flexray"``)."""


__all__ = [
    "BATCH_STRATEGIES",
    "Delivery",
    "LOSS_KINDS",
    "NetworkCapabilities",
    "NetworkModel",
    "Submission",
    "check_batch_strategy",
]
