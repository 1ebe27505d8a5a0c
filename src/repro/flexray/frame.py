"""Frames and messages exchanged on the FlexRay bus."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.utils.validation import check_nonnegative, check_positive

_message_counter = itertools.count()


@dataclass(frozen=True)
class FrameSpec:
    """Static description of a message stream on the bus.

    Attributes
    ----------
    frame_id:
        Arbitration identifier.  In the dynamic segment lower IDs win
        (they own earlier minislots); in the static segment the ID is
        informational only (the slot assignment decides timing).
    payload_bits:
        Frame payload size; determines how many minislots a dynamic
        transmission consumes.
    sender:
        Name of the sending application/ECU (for traces).
    """

    frame_id: int
    payload_bits: int = 64
    sender: str = ""

    def __post_init__(self):
        if self.frame_id < 1:
            raise ValueError(f"frame_id must be >= 1, got {self.frame_id}")
        if self.payload_bits < 1:
            raise ValueError(f"payload_bits must be >= 1, got {self.payload_bits}")

    def transmission_time(self, bit_time: float) -> float:
        """Wire time of one frame at the given bit duration (seconds)."""
        check_positive(bit_time, "bit_time")
        return self.payload_bits * bit_time

    def minislots_needed(self, minislot_length: float, bit_time: float) -> int:
        """Number of minislots a dynamic transmission of this frame uses."""
        wire_time = self.transmission_time(bit_time)
        slots = int(wire_time / minislot_length) + (
            1 if wire_time % minislot_length > 1e-15 else 0
        )
        return max(1, slots)


@dataclass
class Message:
    """One queued transmission of a frame.

    Attributes
    ----------
    spec:
        The frame stream this message belongs to.
    release_time:
        When the payload became available at the sender (seconds).
    payload:
        Opaque payload carried to the receiver (e.g. a control input).
    delivery_time:
        Set by the bus once the transmission window ends; ``None`` while
        the message is still queued.
    """

    spec: FrameSpec
    release_time: float
    payload: Any = None
    delivery_time: Optional[float] = None
    sequence: int = field(default_factory=lambda: next(_message_counter))

    def __post_init__(self):
        check_nonnegative(self.release_time, "release_time")

    @property
    def delivered(self) -> bool:
        return self.delivery_time is not None

    @property
    def latency(self) -> float:
        """Release-to-delivery delay; raises if not yet delivered."""
        if self.delivery_time is None:
            raise ValueError("message has not been delivered yet")
        return self.delivery_time - self.release_time


def _stamp(deliveries: Sequence[Tuple[Any, float, float]]) -> List[Message]:
    """The :class:`Message` keys of a bus core's ``(key, release,
    delivery)`` tuples, in order, each stamped with its delivery time;
    entries queued under other keys (application names) are skipped."""
    delivered = []
    for key, _, delivery in deliveries:
        if isinstance(key, Message):
            key.delivery_time = delivery
            delivered.append(key)
    return delivered


__all__ = ["FrameSpec", "Message"]
