"""Dynamic (ET) segment: minislot counting and frame-ID arbitration.

FlexRay's dynamic segment works as follows (paper Section II-A, after
Pop et al.): a slot counter starts at 1 and all nodes count minislots in
lockstep.  When the counter matches a frame ID whose sender has data
pending, that frame is transmitted and occupies as many minislots as its
length requires; otherwise exactly one (empty) minislot of length
``psi`` elapses.  A frame may only start if it can finish within the
remaining dynamic segment (the ``pLatestTx`` rule); otherwise its sender
must wait for the next cycle.  Lower frame IDs therefore have higher
priority, and the latency of a message depends on the backlog of
lower-ID messages — the non-determinism that makes ET communication the
lower-quality resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.flexray.frame import FrameSpec, Message, _stamp
from repro.flexray.params import FlexRayConfig
from repro.utils.validation import check_positive


@dataclass
class DynamicSegment:
    """Arbitration state for the dynamic segment of one bus.

    Queue entries are ``(release, key, minislots)`` tuples, FIFO per
    frame ID.  ``key`` is whatever the caller queued: a :class:`Message`
    through :meth:`enqueue`, or an application name from the
    co-simulation kernels through :meth:`_enqueue`.

    Attributes
    ----------
    config:
        Bus geometry.
    bit_time:
        Wire duration of one payload bit (determines minislots per frame).
    """

    config: FlexRayConfig
    bit_time: float = 1e-7  # 10 Mbit/s
    _queues: Dict[int, List[Tuple[float, Any, int]]] = field(default_factory=dict)
    #: highest frame ID ever queued: the slot counter runs up to it
    _max_id: int = field(default=0, init=False, repr=False)
    _queued: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        check_positive(self.bit_time, "bit_time")

    def minislots_of(self, spec: FrameSpec) -> int:
        """Minislots one transmission of ``spec`` occupies on this bus."""
        return spec.minislots_needed(self.config.minislot_length, self.bit_time)

    def enqueue(self, message: Message) -> None:
        """Queue a message for ET transmission (FIFO per frame ID)."""
        self._enqueue(
            message.spec.frame_id,
            message.release_time,
            message,
            self.minislots_of(message.spec),
        )

    def _enqueue(self, frame_id: int, release: float, key: Any, minislots: int) -> None:
        """Queue one frame whose minislot count is already known."""
        self._queues.setdefault(frame_id, []).append((release, key, minislots))
        if frame_id > self._max_id:
            self._max_id = frame_id
        self._queued += 1

    def pending(self, frame_id: Optional[int] = None) -> int:
        """Number of queued messages (for one frame ID or in total)."""
        if frame_id is not None:
            return len(self._queues.get(frame_id, []))
        return sum(len(queue) for queue in self._queues.values())

    def run_cycle(self, cycle: int) -> List[Message]:
        """Arbitrate one dynamic segment; returns delivered messages.

        Only messages released before the dynamic-segment start take part
        (payloads produced mid-segment wait for the next cycle, matching
        the lockstep slot-counter semantics).
        """
        out: List[Tuple[Any, float, float]] = []
        self._run(self.config.dynamic_segment_start(cycle), out)
        return _stamp(out)

    def _run(self, segment_start: float, out: List[Tuple[Any, float, float]]) -> int:
        """Arbitrate the segment starting at ``segment_start``: append
        each delivery as ``(key, release, delivery)`` and return how
        many there were."""
        if not self._queued:
            return 0
        cfg = self.config
        total_minislots = cfg.minislots
        psi = cfg.minislot_length
        ready_by = segment_start + 1e-12
        queues = self._queues
        delivered = 0
        minislot = 0  # minislots consumed so far this segment
        counter = 1  # frame-ID slot counter
        max_id = self._max_id
        while minislot < total_minislots and counter <= max_id:
            queue = queues.get(counter)
            if not queue or queue[0][0] > ready_by:
                minislot += 1
                counter += 1
                continue
            release, key, needed = queue[0]
            if minislot + needed > total_minislots:
                # pLatestTx: cannot finish this cycle; hold the message
                # (and everything behind it in this queue) for the next.
                minislot += 1
                counter += 1
                continue
            minislot += needed
            counter += 1
            del queue[0]
            out.append((key, release, segment_start + minislot * psi))
            delivered += 1
        self._queued -= delivered
        return delivered


__all__ = ["DynamicSegment"]
