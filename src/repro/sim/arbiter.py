"""Non-preemptive deadline-priority arbitration of shared TT slots.

Implements the runtime side of the paper's dynamic resource allocation
(Figure 1): an application whose state norm exceeds ``Eth`` requests its
allocated TT slot; the slot is granted to the highest-priority requester
(shortest deadline) once free; the holder keeps the slot without
preemption until it returns to the steady state and releases it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class SlotClient:
    """An application from the arbiter's point of view."""

    name: str
    deadline: float

    @property
    def priority_key(self):
        """Smaller = higher priority (deadline, then name for ties)."""
        return (self.deadline, self.name)


@dataclass
class SlotState:
    """Arbitration state of one shared TT slot."""

    holder: Optional[SlotClient] = None
    requesters: List[SlotClient] = field(default_factory=list)

    def pending(self) -> List[str]:
        return [client.name for client in sorted(self.requesters, key=lambda c: c.priority_key)]


class TTSlotArbiter:
    """Arbitrates a fixed set of TT slots among registered applications.

    Each application is registered against exactly one slot (the
    allocation computed offline decides which).  All state changes happen
    through :meth:`request`, :meth:`release` and :meth:`grant_pending`,
    which the co-simulator calls at sampling boundaries.
    """

    def __init__(self):
        self._slots: Dict[int, SlotState] = {}
        self._client_slot: Dict[str, int] = {}
        self._clients: Dict[str, SlotClient] = {}
        #: holder changes so far: a kernel that saw this count last
        #: time it walked slot ownership needs no new walk.
        self.handovers = 0

    def register(self, client: SlotClient, slot: int) -> None:
        """Assign ``client`` to contend for ``slot``.

        Raises
        ------
        ValueError
            If the client name is already registered.
        """
        if client.name in self._clients:
            raise ValueError(f"client {client.name!r} is already registered")
        self._slots.setdefault(slot, SlotState())
        self._client_slot[client.name] = slot
        self._clients[client.name] = client

    @property
    def slots(self) -> Dict[int, SlotState]:
        return self._slots

    def slot_of(self, name: str) -> int:
        try:
            return self._client_slot[name]
        except KeyError:
            raise KeyError(f"client {name!r} is not registered") from None

    def holder_of_slot(self, slot: int) -> Optional[str]:
        state = self._slots.get(slot)
        return state.holder.name if state and state.holder else None

    def holds(self, name: str) -> bool:
        """Whether the named client currently holds its slot."""
        state = self._slots[self.slot_of(name)]
        return state.holder is not None and state.holder.name == name

    def request(self, name: str) -> bool:
        """Ask for the client's slot; returns True if granted immediately.

        A request while already holding is a no-op returning True; a
        duplicate queued request is collapsed.
        """
        client = self._clients[name]
        state = self._slots[self.slot_of(name)]
        if state.holder is not None:
            if state.holder.name == name:
                return True
            if all(c.name != name for c in state.requesters):
                state.requesters.append(client)
            return False
        state.holder = client
        state.requesters = [c for c in state.requesters if c.name != name]
        self.handovers += 1
        return True

    def release(self, name: str) -> None:
        """Give the slot back (no-op unless ``name`` is the holder).

        The slot is *not* immediately handed to a waiting requester; the
        hand-over happens at the next :meth:`grant_pending` call, which
        the co-simulator invokes at sampling boundaries — matching the
        sample-aligned switching of the paper's scheme.
        """
        state = self._slots[self.slot_of(name)]
        if state.holder is not None and state.holder.name == name:
            state.holder = None
            self.handovers += 1

    def withdraw(self, name: str) -> None:
        """Remove a queued request (e.g. the state settled while waiting)."""
        state = self._slots[self.slot_of(name)]
        state.requesters = [c for c in state.requesters if c.name != name]

    def grant_pending(self) -> List[str]:
        """Hand every free slot to its highest-priority requester.

        Returns the names of clients granted in this pass.
        """
        granted = []
        for state in self._slots.values():
            if state.holder is not None or not state.requesters:
                continue
            state.requesters.sort(key=lambda c: c.priority_key)
            state.holder = state.requesters.pop(0)
            granted.append(state.holder.name)
        self.handovers += len(granted)
        return granted


__all__ = ["SlotClient", "SlotState", "TTSlotArbiter"]
