"""Per-application switching runtime (the Figure 1 state machine).

Each application cycles through three communication states:

* ``ET_STEADY`` — ``||x|| <= Eth``; control messages use the dynamic
  segment and no TT slot is requested;
* ``WAITING`` — a disturbance pushed ``||x||`` above ``Eth``; the
  application keeps using ET communication while requesting its TT slot;
* ``TT_HOLDING`` — the slot was granted; the control loop closes over
  the static slot until ``||x||`` falls back to ``Eth``, then the slot
  is released and the application returns to ``ET_STEADY``.

The runtime also records per-disturbance response times so the
co-simulation can check deadlines (Figure 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.arbiter import SlotClient, TTSlotArbiter
from repro.utils.validation import check_positive


class CommState(enum.Enum):
    """Communication state of one application."""

    ET_STEADY = "et-steady"
    WAITING = "waiting"
    TT_HOLDING = "tt-holding"


@dataclass
class DisturbanceRecord:
    """Book-keeping for one disturbance rejection episode."""

    arrival: float
    granted_at: Optional[float] = None
    settled_at: Optional[float] = None

    @property
    def response_time(self) -> Optional[float]:
        if self.settled_at is None:
            return None
        return self.settled_at - self.arrival


@dataclass
class SwitchingRuntime:
    """Threshold-switching logic for one application.

    Parameters
    ----------
    name:
        Application name (must match the arbiter registration).
    threshold:
        Steady-state threshold ``Eth``.
    arbiter:
        The shared TT-slot arbiter.
    deadline:
        Response-time requirement (drives arbitration priority and the
        deadline check).
    """

    name: str
    threshold: float
    arbiter: TTSlotArbiter
    deadline: float
    state: CommState = CommState.ET_STEADY
    records: List[DisturbanceRecord] = field(default_factory=list)
    tt_allowed: bool = True

    def __post_init__(self):
        check_positive(self.threshold, "threshold")
        check_positive(self.deadline, "deadline")

    @property
    def current_record(self) -> Optional[DisturbanceRecord]:
        if self.records and self.records[-1].settled_at is None:
            return self.records[-1]
        return None

    def on_disturbance(self, time: float) -> None:
        """Note a disturbance arrival (the plant state jump happens
        outside; this only starts the response-time clock)."""
        if self.current_record is None:
            self.records.append(DisturbanceRecord(arrival=time))
        # A disturbance during an ongoing episode keeps the original
        # clock; the paper's model (xi_d <= r) makes this a corner case.

    def update(self, time: float, norm: float) -> CommState:
        """Advance the state machine at a sampling instant.

        Called once per sample with the current plant-state norm, *after*
        the arbiter has granted pending requests for this instant.
        Returns the communication state to use for this sample's message.
        """
        above = norm > self.threshold
        if not self.tt_allowed:
            # Pure-ET baseline: track episodes but never touch the arbiter.
            if above and self.current_record is None:
                self.records.append(DisturbanceRecord(arrival=time))
            elif not above and self.current_record is not None:
                self._mark_settled(time)
            return CommState.ET_STEADY
        if self.state is CommState.ET_STEADY:
            if above:
                if self.current_record is None:
                    # Disturbance observed via the norm (e.g. ramp-in).
                    self.records.append(DisturbanceRecord(arrival=time))
                if self.arbiter.request(self.name):
                    self._mark_granted(time)
                    self.state = CommState.TT_HOLDING
                else:
                    self.state = CommState.WAITING
        elif self.state is CommState.WAITING:
            if not above:
                # Settled while waiting: withdraw and go back to steady.
                self.arbiter.withdraw(self.name)
                self._mark_settled(time)
                self.state = CommState.ET_STEADY
            elif self.arbiter.holds(self.name) or self.arbiter.request(self.name):
                self._mark_granted(time)
                self.state = CommState.TT_HOLDING
        elif self.state is CommState.TT_HOLDING:
            if not above:
                self.arbiter.release(self.name)
                self._mark_settled(time)
                self.state = CommState.ET_STEADY
        return self.state

    def uses_tt(self) -> bool:
        return self.state is CommState.TT_HOLDING

    def response_times(self) -> List[float]:
        """Response times of all completed disturbance episodes."""
        return [r.response_time for r in self.records if r.response_time is not None]

    def client(self) -> SlotClient:
        return SlotClient(name=self.name, deadline=self.deadline)

    def _mark_granted(self, time: float) -> None:
        record = self.current_record
        if record is not None and record.granted_at is None:
            record.granted_at = time

    def _mark_settled(self, time: float) -> None:
        record = self.current_record
        if record is not None:
            record.settled_at = time


__all__ = ["CommState", "DisturbanceRecord", "SwitchingRuntime"]
