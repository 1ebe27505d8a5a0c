"""FlexRay bus parameterisation (paper Section II-A and Section V).

A FlexRay communication cycle consists of a *static segment* — a number
of TDMA slots of equal length ``Psi`` implementing TT communication —
followed by a *dynamic segment* partitioned into minislots of equal
length ``psi`` (with ``psi << Psi``) implementing ET communication.

The paper's case study uses a 5 ms cycle with 10 static slots filling a
2 ms static segment (so ``Psi = 0.2 ms``), the remaining 3 ms being
dynamic;  :func:`paper_bus_config` builds exactly that bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FlexRayConfig:
    """Geometry of one FlexRay communication cycle.

    Attributes
    ----------
    cycle_length:
        Duration of one communication cycle (seconds).
    static_slots:
        Number of TDMA slots in the static segment.
    static_slot_length:
        Length ``Psi`` of each static slot (seconds).
    minislot_length:
        Length ``psi`` of each dynamic-segment minislot (seconds).

    The derived segment lengths and minislot count are computed once per
    instance: the bus reads them every cycle.
    """

    cycle_length: float = 0.005
    static_slots: int = 10
    static_slot_length: float = 0.0002
    minislot_length: float = 0.00001

    def __post_init__(self):
        check_positive(self.cycle_length, "cycle_length")
        if self.static_slots < 1:
            raise ValueError(f"static_slots must be >= 1, got {self.static_slots}")
        check_positive(self.static_slot_length, "static_slot_length")
        check_positive(self.minislot_length, "minislot_length")
        if self.static_segment_length >= self.cycle_length:
            raise ValueError(
                "static segment "
                f"({self.static_segment_length:.6f}s) must leave room for the "
                f"dynamic segment within the {self.cycle_length:.6f}s cycle"
            )
        if self.minislot_length >= self.static_slot_length:
            raise ValueError(
                "minislots are expected to be much shorter than static slots "
                f"(psi={self.minislot_length}, Psi={self.static_slot_length})"
            )

    @cached_property
    def static_segment_length(self) -> float:
        """Total duration of the static segment (seconds)."""
        return self.static_slots * self.static_slot_length

    @cached_property
    def dynamic_segment_length(self) -> float:
        """Total duration of the dynamic segment (seconds)."""
        return self.cycle_length - self.static_segment_length

    @cached_property
    def minislots(self) -> int:
        """Number of whole minislots that fit in the dynamic segment."""
        return int(self.dynamic_segment_length / self.minislot_length + 1e-9)

    def cycle_start(self, cycle: int) -> float:
        """Absolute start time of communication cycle ``cycle``."""
        if cycle < 0:
            raise ValueError(f"cycle must be non-negative, got {cycle}")
        return cycle * self.cycle_length

    def static_slot_window(self, cycle: int, slot: int):
        """``(start, end)`` of a static slot (0-based) in absolute time."""
        if not 0 <= slot < self.static_slots:
            raise ValueError(
                f"slot must lie in [0, {self.static_slots}), got {slot}"
            )
        start = self.cycle_start(cycle) + slot * self.static_slot_length
        return start, start + self.static_slot_length

    def dynamic_segment_start(self, cycle: int) -> float:
        """Absolute start time of the dynamic segment of ``cycle``."""
        return self.cycle_start(cycle) + self.static_segment_length

    def cycle_of(self, time: float) -> int:
        """Index of the communication cycle containing ``time``."""
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        return int(time / self.cycle_length + 1e-9)


def paper_bus_config() -> FlexRayConfig:
    """The Section V bus: 5 ms cycle, 10 static slots in a 2 ms TT segment."""
    return FlexRayConfig(
        cycle_length=0.005,
        static_slots=10,
        static_slot_length=0.0002,
        minislot_length=0.00001,
    )


__all__ = ["FlexRayConfig", "paper_bus_config"]
