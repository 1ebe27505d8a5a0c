"""FlexRay bus substrate: static TDMA + dynamic minislot arbitration.

Implements the hybrid communication protocol of paper Section II-A —
the static (time-triggered) segment with slots of length ``Psi``, the
dynamic (event-triggered) segment with minislots of length ``psi``, and
the worst-case latency analysis for dynamic-segment messages.
"""

from repro.flexray.bus import BusStatistics, FlexRayBus
from repro.flexray.dynamic_segment import DynamicSegment
from repro.flexray.frame import FrameSpec, Message
from repro.flexray.params import FlexRayConfig, paper_bus_config
from repro.flexray.static_segment import CycleFilter, SlotAssignmentError, StaticSchedule
from repro.flexray.timing import (
    EtDelayBound,
    all_et_delay_bounds,
    minislots_consumed_before,
    worst_case_et_delay,
)

__all__ = [
    "BusStatistics",
    "CycleFilter",
    "DynamicSegment",
    "EtDelayBound",
    "FlexRayBus",
    "FlexRayConfig",
    "FrameSpec",
    "Message",
    "SlotAssignmentError",
    "StaticSchedule",
    "all_et_delay_bounds",
    "minislots_consumed_before",
    "paper_bus_config",
    "worst_case_et_delay",
]
