"""Static (TT) segment: the TDMA slot schedule the bus transmits by.

A message assigned to a static slot is transmitted inside that slot's
fixed window (:class:`~repro.flexray.bus.FlexRayBus`), so its delivery
time is known exactly in advance — this determinism is what makes TT
slots the valuable resource the paper economises.  If the payload
misses the slot start, the whole slot of length ``Psi`` goes unused and
the message waits for the slot's next occurrence (paper Section II-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.flexray.frame import FrameSpec
from repro.flexray.params import FlexRayConfig


class SlotAssignmentError(ValueError):
    """Raised on conflicting or invalid static-slot assignments."""


@dataclass(frozen=True)
class CycleFilter:
    """FlexRay cycle multiplexing: a slot owned only on matching cycles.

    A frame with filter ``(base, repetition)`` owns its slot in every
    cycle ``c`` with ``c % repetition == base``.  ``repetition`` must be
    a power of two up to 64 (the FlexRay cycle counter is 6 bits); the
    default ``(0, 1)`` means every cycle.
    """

    base: int = 0
    repetition: int = 1

    def __post_init__(self):
        if self.repetition not in (1, 2, 4, 8, 16, 32, 64):
            raise ValueError(
                f"repetition must be a power of two <= 64, got {self.repetition}"
            )
        if not 0 <= self.base < self.repetition:
            raise ValueError(
                f"base must lie in [0, {self.repetition}), got {self.base}"
            )

    def matches(self, cycle: int) -> bool:
        return cycle % self.repetition == self.base

    def overlaps(self, other: "CycleFilter") -> bool:
        """Whether two filters ever claim the same cycle."""
        step = min(self.repetition, other.repetition)
        return self.base % step == other.base % step


@dataclass
class StaticSchedule:
    """Assignment of frame streams to static slots.

    A slot may be owned outright (the default every-cycle filter) or
    cycle-multiplexed between several streams with disjoint
    :class:`CycleFilter` patterns (FlexRay slot multiplexing).  Ownership
    can also be transferred between cycles at runtime — that is exactly
    the paper's dynamic resource allocation (applications acquire and
    release a shared TT slot via the arbiter in :mod:`repro.sim.arbiter`).
    """

    config: FlexRayConfig
    _owners: Dict[int, list] = field(default_factory=dict)
    # slot -> list of (CycleFilter, FrameSpec)
    #: the slot walk of the current ownership; every change drops it
    _walk_cache: Optional[Tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def assign(
        self, slot: int, spec: FrameSpec, cycle_filter: CycleFilter = CycleFilter()
    ) -> None:
        """Give ``spec`` ownership of ``slot`` on the filter's cycles.

        Raises
        ------
        SlotAssignmentError
            If the slot index is out of range or another stream already
            claims an overlapping cycle pattern.
        """
        self._check_slot(slot)
        entries = self._owners.setdefault(slot, [])
        for existing_filter, existing_spec in entries:
            if existing_spec.frame_id == spec.frame_id:
                continue
            if existing_filter.overlaps(cycle_filter):
                raise SlotAssignmentError(
                    f"slot {slot} is already owned by frame "
                    f"{existing_spec.frame_id} on overlapping cycles"
                )
        entries[:] = [
            (f, s) for f, s in entries if s.frame_id != spec.frame_id
        ]
        entries.append((cycle_filter, spec))
        self._walk_cache = None

    def release(self, slot: int, frame_id: Optional[int] = None) -> None:
        """Return ``slot`` to the free pool.

        With ``frame_id`` given only that stream's assignment is removed;
        otherwise the slot is fully cleared.  No-op if already free.
        """
        self._check_slot(slot)
        self._walk_cache = None
        if frame_id is None:
            self._owners.pop(slot, None)
            return
        entries = self._owners.get(slot)
        if entries is not None:
            entries[:] = [(f, s) for f, s in entries if s.frame_id != frame_id]

    def owner(self, slot: int, cycle: Optional[int] = None) -> Optional[FrameSpec]:
        """Stream owning ``slot`` (in ``cycle``, when given).

        With ``cycle=None`` the first assignment is returned regardless
        of its filter — convenient for singly-owned slots.
        """
        self._check_slot(slot)
        entries = self._owners.get(slot, [])
        if cycle is None:
            return entries[0][1] if entries else None
        for cycle_filter, spec in entries:
            if cycle_filter.matches(cycle):
                return spec
        return None

    def slot_of(self, frame_id: int) -> Optional[int]:
        """Slot currently owned by ``frame_id`` (None if it owns none)."""
        return self._walk()[1].get(frame_id)

    def _walk(self) -> Tuple[List[Tuple], Dict[int, int], Optional[int]]:
        """The owned-slot walk the bus runs every cycle, rebuilt only
        after an ownership change: ``(slots, frame_slot, every_cycle)``.

        ``slots`` lists ``(slot * Psi, slot, owner, filters)`` for every
        assigned slot in index order, where ``owner`` is the frame id of
        an every-cycle owner and ``None`` for a multiplexed slot, whose
        ``filters`` are its ``(repetition, base, frame_id)`` triples in
        assignment order.  ``frame_slot`` answers :meth:`slot_of`, and
        ``every_cycle`` is the number of slots owned in every cycle when
        no slot is multiplexed (``None`` otherwise).
        """
        if self._walk_cache is not None:
            return self._walk_cache
        owners = self._owners
        length = self.config.static_slot_length
        slots = []
        multiplexed = False
        for slot in sorted(owners):
            entries = owners[slot]
            if len(entries) == 1 and entries[0][0].repetition == 1:
                slots.append((slot * length, slot, entries[0][1].frame_id, ()))
            elif entries:
                multiplexed = True
                filters = tuple((f.repetition, f.base, s.frame_id) for f, s in entries)
                slots.append((slot * length, slot, None, filters))
        frame_slot: Dict[int, int] = {}
        for slot, entries in owners.items():
            for _, spec in entries:
                frame_slot.setdefault(spec.frame_id, slot)
        every_cycle = None if multiplexed else len(slots)
        self._walk_cache = (slots, frame_slot, every_cycle)
        return self._walk_cache

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.config.static_slots:
            raise SlotAssignmentError(
                f"slot must lie in [0, {self.config.static_slots}), got {slot}"
            )


__all__ = ["CycleFilter", "SlotAssignmentError", "StaticSchedule"]
