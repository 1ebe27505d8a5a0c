"""Composable loss processes and the loss-wrapping network adapter.

Loss used to be a single i.i.d. ``loss_rate`` float baked into the
FlexRay backend.  This module factors it into pluggable
:class:`LossProcess` objects — one boolean draw per delivered control
message — so any backend can be wrapped with :class:`LossyNetwork`,
and the FlexRay backend itself delegates its historical ``loss_rate``
semantics to :class:`IIDLoss` (bit-for-bit: same
``np.random.default_rng(seed)`` stream, same one-draw-per-delivery
order, draw *before* the staleness check).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.flexray.frame import FrameSpec
from repro.sim.network.can import CanBusNetwork
from repro.sim.network.protocol import (
    Delivery,
    NetworkCapabilities,
    NetworkModel,
    Submission,
)


class LossProcess(abc.ABC):
    """One seeded boolean stream: ``sample()`` per delivered message."""

    #: Capability identifier reported by wrapped backends.
    kind: str = "custom"

    @abc.abstractmethod
    def sample(self) -> bool:
        """Draw once: ``True`` means this delivery is lost."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Rewind to the start of the seeded stream."""


@dataclass
class IIDLoss(LossProcess):
    """Independent losses at a fixed rate.

    Replays the legacy FlexRay ``loss_rate`` stream bit-for-bit: one
    ``default_rng(seed).random() < rate`` draw per delivered message.
    With ``rate == 0`` no generator state is consumed (the legacy path
    created no generator at all).
    """

    rate: float
    seed: int = 0

    kind = "iid"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {self.rate}")
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def sample(self) -> bool:
        if self.rate <= 0.0:
            return False
        return bool(self._rng.random() < self.rate)


@dataclass
class GilbertElliottLoss(LossProcess):
    """Bursty losses from the two-state Gilbert-Elliott channel.

    The channel alternates between a *good* and a *bad* state with the
    given per-message transition probabilities; each delivery first
    advances the state (one draw), then draws its loss against the
    state's loss probability (a second draw).  Defaults give rare,
    short, severe bursts — mean burst length ``1/p_bad_to_good`` = 5
    messages at 50% loss.
    """

    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.2
    p_loss_good: float = 0.0
    p_loss_bad: float = 0.5
    seed: int = 0

    kind = "gilbert-elliott"

    def __post_init__(self) -> None:
        for label in ("p_good_to_bad", "p_bad_to_good", "p_loss_good", "p_loss_bad"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._bad = False

    def sample(self) -> bool:
        transition = float(self._rng.random())
        if self._bad:
            if transition < self.p_bad_to_good:
                self._bad = False
        elif transition < self.p_good_to_bad:
            self._bad = True
        p_loss = self.p_loss_bad if self._bad else self.p_loss_good
        return bool(self._rng.random() < p_loss)


@dataclass
class LossyNetwork(NetworkModel):
    """Wrap any backend with a :class:`LossProcess`.

    Deliveries pass through the inner transport untouched; each
    *delivered* (not already-lost) message costs exactly one
    ``loss.sample()`` draw, in the inner backend's delivery order —
    the same per-delivery accounting the FlexRay ``loss_rate`` path
    has always used.  Clamp/loss counters are owned by the wrapper so
    ``statistics()`` merges cleanly with the inner backend's.
    """

    inner: Any
    loss: LossProcess
    lost: int = 0
    clamped: int = 0

    def event_submit(
        self, time: float, window_end: float, submissions: Sequence[Submission]
    ) -> None:
        self.inner.event_submit(time, window_end, submissions)

    def event_advance(self, time: float) -> List[Delivery]:
        out: List[Delivery] = []
        for delivery in self.inner.event_advance(time):
            if not delivery.lost and self.loss.sample():
                self.lost += 1
                delivery = Delivery(
                    name=delivery.name,
                    release_time=delivery.release_time,
                    delivery_time=delivery.delivery_time,
                    lost=True,
                )
            out.append(delivery)
        return out

    def on_slot_change(self, slot: int, spec: Optional[FrameSpec]) -> None:
        self.inner.on_slot_change(slot, spec)

    def reset(self) -> None:
        self.inner.reset()
        self.loss.reset()
        self.lost = 0
        self.clamped = 0

    def statistics(self) -> Dict[str, Any]:
        stats = dict(self.inner.statistics())
        stats["lost"] = int(stats.get("lost", 0)) + self.lost
        stats["clamped"] = int(stats.get("clamped", 0)) + self.clamped
        return stats

    def capabilities(self) -> NetworkCapabilities:
        inner_caps = (
            self.inner.capabilities()
            if hasattr(self.inner, "capabilities")
            else NetworkCapabilities()
        )
        # Loss is seeded-random, so the composite is reproducible but
        # not deterministic.  Only the "can" strategy covers a wrapper,
        # and only this exact class around a bus that claims it: the
        # source drives the bus's tuple core and draws this loss
        # process per delivery (a nested wrapper is not a bus).  Every
        # other composite runs the live batch path through this
        # wrapper's own sample_delays.
        strategy = None
        if (
            type(self) is LossyNetwork
            and isinstance(self.inner, CanBusNetwork)
            and inner_caps.batch_strategy == "can"
        ):
            strategy = "can"
        return replace(
            inner_caps,
            deterministic=False,
            batch_strategy=strategy,
            loss=self.loss.kind,
        )


__all__ = [
    "GilbertElliottLoss",
    "IIDLoss",
    "LossProcess",
    "LossyNetwork",
]
