"""Cycle-stepped FlexRay bus simulator.

Combines the static TDMA schedule and the dynamic-segment arbitration
into a single bus object that the co-simulation drives cycle by cycle.
Senders submit messages tagged TT (with their currently owned slot) or
ET; :meth:`FlexRayBus.advance_to` runs whole communication cycles and
returns everything delivered on the way.

Both co-simulation kernels drive the same cycle walk.  The public
:class:`~repro.flexray.frame.Message` API wraps a tuple-level core —
:meth:`FlexRayBus._enqueue_tt`, :meth:`DynamicSegment._enqueue` and
:meth:`FlexRayBus._advance` — whose queue entries are keyed by whatever
the caller submitted: a ``Message``, or an application name from the
network backend and the batch kernel, which then need no per-message
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.flexray.dynamic_segment import DynamicSegment
from repro.flexray.frame import FrameSpec, Message, _stamp
from repro.flexray.params import FlexRayConfig
from repro.flexray.static_segment import StaticSchedule


@dataclass
class BusStatistics:
    """Counters accumulated while the bus runs."""

    cycles: int = 0
    tt_deliveries: int = 0
    et_deliveries: int = 0
    unused_static_slots: int = 0

    @property
    def static_utilization(self) -> float:
        """Fraction of elapsed static-slot windows actually used."""
        total = self.tt_deliveries + self.unused_static_slots
        return self.tt_deliveries / total if total else 0.0


@dataclass
class FlexRayBus:
    """A FlexRay bus advancing one communication cycle at a time."""

    config: FlexRayConfig
    bit_time: float = 1e-7
    static: StaticSchedule = field(init=False)
    dynamic: DynamicSegment = field(init=False)
    statistics: BusStatistics = field(init=False)
    #: slot -> FIFO of ``(release, frame_id, key)`` TT entries
    _tt_queues: Dict[int, List[Tuple[float, int, Any]]] = field(
        init=False, default_factory=dict
    )
    _tt_queued: int = field(init=False, default=0, repr=False)
    _cycle: int = field(init=False, default=0)

    def __post_init__(self):
        self.static = StaticSchedule(config=self.config)
        self.dynamic = DynamicSegment(config=self.config, bit_time=self.bit_time)
        self.statistics = BusStatistics()

    @property
    def current_cycle(self) -> int:
        """Index of the next cycle that has not run yet."""
        return self._cycle

    @property
    def time(self) -> float:
        """Simulation time at the start of the next cycle."""
        return self.config.cycle_start(self._cycle)

    def submit_tt(self, message: Message) -> None:
        """Queue a message for the sender's owned static slot.

        Raises
        ------
        ValueError
            If the frame does not currently own any static slot.
        """
        self._enqueue_tt(message.spec.frame_id, message.release_time, message)

    def submit_et(self, message: Message) -> None:
        """Queue a message for the dynamic segment."""
        self.dynamic.enqueue(message)

    def run_cycle(self) -> List[Message]:
        """Run one full communication cycle; return delivered messages."""
        out: List[Tuple[Any, float, float]] = []
        self._run_cycle(self._cycle, self.static._walk(), out)
        self._cycle += 1
        return _stamp(out)

    def advance_to(self, time: float) -> List[Message]:
        """Run whole cycles until the bus clock reaches ``time``."""
        return _stamp(self._advance(time))

    def grant_slot(self, slot: int, spec: FrameSpec) -> None:
        """Transfer static-slot ownership to ``spec`` (arbiter action)."""
        self.static.assign(slot, spec)

    def release_slot(self, slot: int) -> None:
        """Release a static slot; drops any messages still queued on it."""
        self.static.release(slot)
        dropped = self._tt_queues.pop(slot, None)
        if dropped:
            self._tt_queued -= len(dropped)

    # -- tuple core (shared by both co-simulation kernels) -----------------

    def _enqueue_tt(self, frame_id: int, release: float, key: Any) -> None:
        """Queue one TT frame for the slot ``frame_id`` owns."""
        slot = self.static.slot_of(frame_id)
        if slot is None:
            raise ValueError(
                f"frame {frame_id} owns no static slot; "
                "submit over the dynamic segment instead"
            )
        self._tt_queues.setdefault(slot, []).append((release, frame_id, key))
        self._tt_queued += 1

    def _advance(self, time: float) -> List[Tuple[Any, float, float]]:
        """Run whole cycles until the bus clock reaches ``time``; report
        every delivery as ``(key, release, delivery)`` in bus order
        (static slots by index, then the dynamic segment)."""
        out: List[Tuple[Any, float, float]] = []
        length = self.config.cycle_length
        limit = time + 1e-12
        cycle = self._cycle
        if cycle * length + length <= limit:
            walk = self.static._walk()
            every_cycle = walk[2]
            dynamic = self.dynamic
            while cycle * length + length <= limit and (
                self._tt_queued or dynamic._queued or every_cycle is None
            ):
                self._run_cycle(cycle, walk, out)
                cycle += 1
            # Nothing is queued any more, and nothing is queued during an
            # advance: every remaining cycle leaves each owned slot unused.
            idle = cycle
            while cycle * length + length <= limit:
                cycle += 1
            if cycle > idle:
                self.statistics.cycles += cycle - idle
                self.statistics.unused_static_slots += (cycle - idle) * every_cycle
            self._cycle = cycle
        return out

    def _run_cycle(self, cycle: int, walk: Tuple, out: List) -> None:
        """One communication cycle over the owned-slot ``walk``.  With
        no TT frame queued and no slot multiplexed, every owned slot goes
        unused, so the static segment is counted without walking it."""
        cfg = self.config
        cycle_start = cycle * cfg.cycle_length
        stats = self.statistics
        slots, _, every_cycle = walk
        if self._tt_queued or every_cycle is None:
            self._run_static(cycle, cycle_start, slots, out)
        else:
            stats.unused_static_slots += every_cycle
        stats.et_deliveries += self.dynamic._run(
            cycle_start + cfg.static_segment_length, out
        )
        stats.cycles += 1

    def _run_static(
        self, cycle: int, cycle_start: float, slots: List[Tuple], out: List
    ) -> None:
        """Each owned slot transmits the first entry of its owner in this
        cycle released by the slot start; other frames queued on a
        multiplexed slot wait for their own cycles."""
        queues = self._tt_queues
        slot_length = self.config.static_slot_length
        stats = self.statistics
        for offset, slot, owner, filters in slots:
            if owner is None:
                owner = next(
                    (frame for rep, base, frame in filters if cycle % rep == base),
                    None,
                )
                if owner is None:
                    continue
            start = cycle_start + offset
            queue = queues.get(slot)
            ready = None
            if queue:
                ready_by = start + 1e-12
                for position, (release, frame_id, _) in enumerate(queue):
                    if frame_id == owner and release <= ready_by:
                        ready = position
                        break
            if ready is None:
                # Data missed the slot start: the whole slot goes unused
                # (paper Sec. II-A).
                stats.unused_static_slots += 1
                continue
            release, _, key = queue.pop(ready)
            self._tt_queued -= 1
            out.append((key, release, start + slot_length))
            stats.tt_deliveries += 1


__all__ = ["BusStatistics", "FlexRayBus"]
