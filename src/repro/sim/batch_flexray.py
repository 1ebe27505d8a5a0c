"""The FlexRay schedule mirror: the batch kernel's ``"flexray"`` delay source.

The FlexRay static segment is TDMA: for a static-slot fleet every grant
and transmission instant is computable ahead of time from the slot
table alone — nothing on the bus depends on anything the schedule walk
cannot see.  This module exploits that determinism to extend the
:mod:`repro.sim.batch` fast path to FlexRay fleets:

* :func:`flexray_deterministic` is the capability check — a
  :class:`~repro.sim.network.FlexRayNetwork` qualifies iff there is no
  background traffic contending for the dynamic segment and the bus is
  a pristine, unmodified :class:`~repro.flexray.bus.FlexRayBus` (exact
  types, cycle 0, empty queues, no pre-assigned slots — every grant
  then flows through the arbiter with the default every-cycle
  :class:`~repro.flexray.static_segment.CycleFilter`).  Its i.i.d.
  frame loss is no obstacle: the mirror draws the network's own
  :class:`~repro.sim.network.IIDLoss` stream once per mirrored control
  delivery, in the order the bus delivers (static slots by index, then
  the dynamic segment).
* :class:`_FlexRaySchedule` walks the static-segment slot table and the
  dynamic-segment minislot counter exactly like
  :meth:`~repro.flexray.bus.FlexRayBus.run_cycle`, but makes every
  *decision* (cycle advance, slot-start grant eligibility, minislot
  head eligibility) on the event kernel's **integer-nanosecond grid**
  while producing every delivery *value* with the bus's exact float
  expressions.  Cycles with nothing queued are skipped arithmetically
  (statistics stay faithful), which is where the fast path earns its
  speedup: the event kernel walks every slot of every cycle through the
  full object machinery.
* :class:`_MirrorDelays` is the delay source the batch kernel's eager
  and lazy loops read for a qualifying fleet: it submits the roster's
  messages to the schedule walk, draws one loss sample per delivery,
  and answers with the delays the event kernel would resolve, so
  traces are bitwise identical to the event kernel's (asserted by the
  parity and property tests in ``tests/test_cosim_batch_flexray.py``
  and ``tests/test_cosim_batch_networks.py``).  Every other
  shared-period network drives the batch loop itself through the
  live source in :mod:`repro.sim.batch`.

Why integer nanoseconds are safe here: every compared instant —
``k * period`` releases, ``cycle * L + slot * Psi`` slot starts,
dynamic-segment starts, cycle boundaries — lies on a microsecond-or-
coarser design grid, with float noise bounded by a few ulps (well under
``1e-12`` s for any realistic horizon).  The bus's ``1e-12``-epsilon
comparisons and the round-to-nearest-nanosecond comparisons therefore
decide identically with the exact-rational grid, so the mirror is
bitwise faithful *and* honours the QA003 int-ns contract.

After a mirrored run the mirror's counters are written back to the real
``network.bus.statistics`` (cycles, deliveries, unused slots),
``network.clamped`` and ``network.lost``, and the bus clock is
advanced, so downstream consumers (the multi-rate bus-sharing tests,
the cosim artifact's ``loss`` block) see the same numbers the event
kernel would have left.  The bus's slot table and message queues
themselves are not replayed — the schedule walk owns them for the
duration of the run.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.flexray.bus import FlexRayBus
from repro.flexray.dynamic_segment import DynamicSegment
from repro.flexray.frame import FrameSpec
from repro.flexray.static_segment import StaticSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import FlexRayNetwork


def flexray_deterministic(network: "FlexRayNetwork") -> bool:
    """Whether the schedule mirror models this FlexRay network exactly.

    True iff nothing outside the slot table (background dynamic-segment
    traffic, pre-warmed bus state, subclassed bus components) can
    influence a delivery instant.  The pristine-bus requirements pin
    the one configuration the schedule mirror models: ownership driven
    entirely by the arbiter, with the default every-cycle cycle filter.
    Frame loss does not disqualify: the mirror draws the network's own
    i.i.d. stream in bus delivery order.
    """
    if network.traffic is not None:
        return False
    bus = network.bus
    if type(bus) is not FlexRayBus:
        return False
    if type(bus.static) is not StaticSchedule:
        return False
    if type(bus.dynamic) is not DynamicSegment:
        return False
    if bus.current_cycle != 0 or bus._tt_queues or network._inflight:
        return False
    if bus.dynamic.pending() != 0:
        return False
    # No pre-assigned slots: a hand-assigned slot could carry a
    # non-default cycle filter the mirror does not model.
    if len(bus.static.free_slots()) != bus.config.static_slots:
        return False
    return True


class _FlexRaySchedule:
    """Slot-table walk emitting grant/transmit instants on the ns grid.

    Mirrors :meth:`FlexRayBus.run_cycle` message for message.  Queued
    entries are ``(release_float, release_ns, app_index)`` tuples; every
    delivery float is produced by the same expressions the bus uses
    (``cycle * L + slot * Psi`` slot-window starts plus ``Psi`` for TT,
    ``segment_start + minislot * psi`` for ET), so the values handed to
    the kernel are bitwise identical to the event kernel's.
    """

    def __init__(self, bus: FlexRayBus, frames: List) -> None:
        cfg = bus.config
        self.cycle_length = cfg.cycle_length
        self.slot_length = cfg.static_slot_length
        self.minislot_length = cfg.minislot_length
        self.static_segment = cfg.static_segment_length
        self.total_minislots = cfg.minislots
        #: per slot, the same ``slot * Psi`` product the bus computes in
        #: :meth:`FlexRayConfig.static_slot_window`.
        self.slot_offsets = [
            slot * cfg.static_slot_length for slot in range(cfg.static_slots)
        ]
        self.cycle = 0
        #: slot -> owning frame id (arbiter-driven, every-cycle filter),
        #: in slot-index order.
        self.slot_frame: Dict[int, int] = {}
        self.frame_slot: Dict[int, int] = {}
        #: slot -> FIFO of queued TT entries; the first *eligible* entry
        #: transmits, removed mid-queue like the bus's ``queue.remove``.
        self.tt_queues: Dict[int, List[Tuple[float, int, int]]] = {}
        #: frame id -> FIFO of queued ET entries.
        self.et_queues: Dict[int, List[Tuple[float, int, int]]] = {}
        #: highest frame id ever enqueued on the dynamic segment — the
        #: bus's ``max(self._queues.keys())`` ranges over keys that
        #: persist even after their queue drains.
        self.et_max_id = 0
        #: frame id -> minislots needed, via the real FrameSpec method.
        self.minislots_of = {
            spec.frame_id: spec.minislots_needed(cfg.minislot_length, bus.bit_time)
            for spec in frames
        }
        self.pending = 0
        # BusStatistics mirror, written back after the run.
        self.cycles = 0
        self.tt_deliveries = 0
        self.et_deliveries = 0
        self.unused_static_slots = 0

    # -- arbiter-driven ownership -----------------------------------------

    def on_slot_change(self, slot: int, spec: Optional[FrameSpec]) -> None:
        """Mirror of ``FlexRayNetwork.on_slot_change``: a release drops
        the slot's queued messages; a grant re-homes it to ``spec``."""
        dropped = self.tt_queues.pop(slot, None)
        if dropped:
            self.pending -= len(dropped)
        old = self.slot_frame.pop(slot, None)
        if old is not None:
            del self.frame_slot[old]
        if spec is not None:
            frame_id = spec.frame_id
            self.slot_frame[slot] = frame_id
            self.frame_slot[frame_id] = slot
            # The bus walks owned slots in index order, and loss draws
            # follow delivery order: re-sort here, not per cycle.
            self.slot_frame = dict(sorted(self.slot_frame.items()))

    # -- submissions -------------------------------------------------------

    def submit(self, index: int, uses_tt: bool, frame_id: int, release: float) -> None:
        entry = (release, round(release * 1e9), index)
        if uses_tt:
            slot = self.frame_slot.get(frame_id)
            if slot is None:  # pragma: no cover - ownership precedes submit
                raise ValueError(
                    f"frame {frame_id} owns no static slot; "
                    "submit over the dynamic segment instead"
                )
            self.tt_queues.setdefault(slot, []).append(entry)
        else:
            self.et_queues.setdefault(frame_id, []).append(entry)
            if frame_id > self.et_max_id:
                self.et_max_id = frame_id
        self.pending += 1

    # -- the schedule walk -------------------------------------------------

    def advance_to(self, target: float) -> List[Tuple[int, float, float]]:
        """Run whole cycles up to ``target``; return deliveries as
        ``(app_index, release_float, delivery_float)``.

        Same cycle-count decision as ``FlexRayBus.advance_to``, made on
        the ns grid; empty cycles are accounted arithmetically.
        """
        target_ns = round(target * 1e9)
        out: List[Tuple[int, float, float]] = []
        cycle = self.cycle
        length = self.cycle_length
        while True:
            cycle_start = cycle * length
            if round((cycle_start + length) * 1e9) > target_ns:
                break
            if self.pending:
                self._run_cycle(cycle_start, out)
            else:
                # Nothing queued anywhere: every owned slot goes unused
                # and the dynamic segment idles — pure accounting.
                self.unused_static_slots += len(self.slot_frame)
            self.cycles += 1
            cycle += 1
        self.cycle = cycle
        return out

    def _run_cycle(
        self, cycle_start: float, out: List[Tuple[int, float, float]]
    ) -> None:
        slot_length = self.slot_length
        tt_queues = self.tt_queues
        for slot in self.slot_frame:
            queue = tt_queues.get(slot)
            ready = None
            if queue:
                window_start = cycle_start + self.slot_offsets[slot]
                start_ns = round(window_start * 1e9)
                for position, entry in enumerate(queue):
                    if entry[1] <= start_ns:
                        ready = position
                        break
            if ready is None:
                # Data missed the slot start: the whole slot goes unused.
                self.unused_static_slots += 1
                continue
            release, _release_ns, index = queue.pop(ready)
            self.pending -= 1
            out.append((index, release, window_start + slot_length))
            self.tt_deliveries += 1
        # Dynamic segment: lockstep minislot counter over frame ids.
        segment_start = cycle_start + self.static_segment
        segment_ns = round(segment_start * 1e9)
        minislot = 0
        counter = 1
        max_id = self.et_max_id
        total = self.total_minislots
        psi = self.minislot_length
        et_queues = self.et_queues
        while minislot < total and counter <= max_id:
            queue = et_queues.get(counter)
            if not queue or queue[0][1] > segment_ns:
                minislot += 1
                counter += 1
                continue
            needed = self.minislots_of[counter]
            if minislot + needed > total:
                # pLatestTx: cannot finish this cycle; hold the queue.
                minislot += 1
                counter += 1
                continue
            minislot += needed
            counter += 1
            release, _release_ns, index = queue.pop(0)
            self.pending -= 1
            out.append((index, release, segment_start + minislot * psi))
            self.et_deliveries += 1


class _MirrorDelays:
    """The schedule mirror as the batch kernel's delay source.

    Submissions go to the :class:`_FlexRaySchedule` walk and delivery
    instants come back from it, mirroring the event kernel's
    submit/advance sequence (eager: one full-interval advance per
    barrier; lazy: incremental advances to each barrier's flush
    instant).  Every delivery draws the network's own i.i.d. loss stream
    once, in delivery order and before any staleness check, as the bus
    does.
    """

    def __init__(self, network: "FlexRayNetwork", apps: List) -> None:
        self.network = network
        self.mirror = _FlexRaySchedule(network.bus, [a.frame for a in apps])
        self.frame_ids = [a.frame.frame_id for a in apps]
        self.on_slot_change = self.mirror.on_slot_change
        loss = network._loss
        self.draw = None if loss is None else loss.sample
        self.clamped = 0
        self.lost = 0

    def interval(self, t: float, period: float, modes: List[int]) -> List[float]:
        """One interval with the inherited ``sample_delays`` semantics:
        a lost delivery reads ``inf``, and nothing fresh delivered means
        clamped to ``period``."""
        submit = self.mirror.submit
        for i, frame_id in enumerate(self.frame_ids):
            submit(i, modes[i] == 1, frame_id, t)
        delays: List[Optional[float]] = [None] * len(modes)
        for index, release, delivery, lost in self.advance_to(t + period):
            if lost:
                delays[index] = inf
            # Exact compare: a fresh delivery's release *is* this
            # barrier's float; a stale one is at least a period older.
            elif release == t:
                delays[index] = min(delivery - t, period)
        for i, delay in enumerate(delays):
            if delay is None:
                delays[i] = period
                self.clamped += 1
        return delays

    def submit(self, i: int, mode: int, release: float) -> None:
        self.mirror.submit(i, mode == 1, self.frame_ids[i], release)

    def advance_to(self, t: float) -> List[Tuple[int, float, float, bool]]:
        draw = self.draw
        out = []
        for index, release, delivery in self.mirror.advance_to(t):
            lost = draw is not None and draw()
            if lost:
                self.lost += 1
            out.append((index, release, delivery, lost))
        return out

    def settle(self) -> None:
        """Write the schedule walk's accounting back to the real bus so
        statistics consumers see what the event kernel would report."""
        mirror = self.mirror
        network = self.network
        stats = network.bus.statistics
        stats.cycles += mirror.cycles
        stats.tt_deliveries += mirror.tt_deliveries
        stats.et_deliveries += mirror.et_deliveries
        stats.unused_static_slots += mirror.unused_static_slots
        network.bus._cycle = mirror.cycle
        network.clamped += self.clamped
        network.lost += self.lost


__all__ = ["flexray_deterministic"]
