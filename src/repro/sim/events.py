"""Minimal deterministic discrete-event kernel.

The co-simulator schedules sampling instants, disturbance arrivals and
horizon samples on this queue.  Events at equal times fire in insertion
order (a monotonically increasing sequence number breaks ties), which
keeps multi-application runs reproducible.

The queue is a hot path: a 20 s co-simulation of a six-application
fleet pushes and pops tens of thousands of events, so entries are plain
``(time, order, callback)`` tuples (tuple comparison short-circuits on
the leading floats — no per-entry object, no generated ``__lt__``).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: A scheduled event: ``(time, order, callback)``.
Entry = Tuple[float, int, Callable[[float], None]]


class EventQueue:
    """Priority queue of timed callbacks."""

    __slots__ = ("_heap", "_next_order", "_now")

    def __init__(self):
        self._heap: List[Entry] = []
        self._next_order = 0
        self._now = 0.0

    def schedule(self, time: float, callback: Callable[[float], None]) -> None:
        """Schedule ``callback(time)``.

        Raises
        ------
        ValueError
            If the event lies in the past.
        """
        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule event at {time}; current time is {self._now}"
            )
        order = self._next_order
        self._next_order = order + 1
        heapq.heappush(self._heap, (time, order, callback))

    def peek_time(self) -> Optional[float]:
        """Time of the next event, or ``None`` when empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def run(self) -> int:
        """Fire events until the queue drains; returns the fire count.

        Callbacks may keep scheduling new events (the co-simulation
        kernel chains sampling ticks this way); the queue simply runs
        until nothing is left.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap:
            time, _, callback = pop(heap)
            self._now = time
            callback(time)
            fired += 1
        return fired


__all__ = ["Entry", "EventQueue"]
