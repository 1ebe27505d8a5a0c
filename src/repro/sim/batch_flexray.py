"""Network-driven batch kernel: the FlexRay schedule mirror and the live path.

The FlexRay static segment is TDMA: for a static-slot fleet every grant
and transmission instant is computable ahead of time from the slot
table alone — nothing on the bus depends on anything the schedule walk
cannot see.  This module exploits that determinism to extend the
:mod:`repro.sim.batch` fast path to FlexRay fleets, and runs every
other shared-period network from the same loop:

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
* :class:`_NetworkBatchKernel` plugs the network into the batch
  kernel's precomputed tick grids.  Behind its eager (shared-period)
  loop sits either the schedule mirror or — on the **live path**, for
  CAN, loss wrappers, background traffic and subclassed or duck-typed
  networks — the real network object, called through
  ``on_slot_change`` and ``sample_delays`` with the same arguments and
  in the same order as the event kernel's eager mode, so delays, loss
  draws, clamps and statistics come from the network itself.  Traces
  are bitwise identical to the event kernel (asserted by the parity
  and property tests in ``tests/test_cosim_batch_flexray.py`` and
  ``tests/test_cosim_batch_networks.py``).

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

from math import inf, isfinite, sqrt
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.flexray.bus import FlexRayBus
from repro.flexray.dynamic_segment import DynamicSegment
from repro.flexray.frame import FrameSpec
from repro.flexray.static_segment import StaticSchedule
from repro.sim.batch import _BatchKernel
from repro.sim.network.protocol import Submission
from repro.sim.runtime import CommState
from repro.sim.stepper import delay_key

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


class _NetworkBatchKernel(_BatchKernel):
    """Batch kernel whose delays come from a network, mirrored or live.

    Reuses the analytic batch kernel's tick grids, hoisted operators and
    plant-sweep machinery; only delay resolution differs.  With
    ``live=False`` each barrier submits the roster's messages to the
    :class:`_FlexRaySchedule` walk and reads the delivery instants back,
    exactly mirroring the event kernel's submit/advance sequence (eager:
    one full-interval advance per barrier; lazy: incremental advances
    with intervals resolved at the owner's next tick).  With
    ``live=True`` (shared period only) each barrier hands the real
    network the event kernel's ``sample_delays`` call.
    """

    def __init__(self, sim, horizon: float, live: bool):
        super().__init__(sim, horizon)
        self.live = live

    def _prepare_network(self) -> None:
        network = self.sim.network
        if self.live:
            self._slot_sink = network.on_slot_change
            return
        self.mirror = _FlexRaySchedule(network.bus, [a.frame for a in self.apps])
        self.frame_ids = [a.frame.frame_id for a in self.apps]
        self._slot_sink = self.mirror.on_slot_change
        loss = network._loss
        self._draw_loss = None if loss is None else loss.sample
        self._clamped = 0
        self._lost = 0

    def _settle_network(self) -> None:
        """Write the schedule walk's accounting back to the real bus so
        statistics consumers see what the event kernel would report (a
        live network kept its own counters)."""
        if self.live:
            return
        mirror = self.mirror
        network = self.sim.network
        stats = network.bus.statistics
        stats.cycles += mirror.cycles
        stats.tt_deliveries += mirror.tt_deliveries
        stats.et_deliveries += mirror.et_deliveries
        stats.unused_static_slots += mirror.unused_static_slots
        network.bus._cycle = mirror.cycle
        network.clamped += self._clamped
        network.lost += self._lost

    def _propagate_slots(self, slot_owner: Dict[int, Optional[str]]) -> None:
        """The event kernel's transmit-phase ownership hand-over, told to
        the schedule mirror or the live network."""
        arbiter = self.sim.arbiter
        names = self.names
        for app in self.apps:
            slot = app.slot
            holder = arbiter.holder_of_slot(slot)
            if slot_owner[slot] != holder:
                spec = None
                if holder is not None:
                    spec = self.apps[names.index(holder)].frame
                self._slot_sink(slot, spec)
                slot_owner[slot] = holder

    def _mirror_delays(self, t: float, period: float, modes: List[int]) -> List:
        """One interval through the schedule mirror, with the inherited
        ``sample_delays`` semantics: one loss draw per delivery, before
        the staleness check (a lost interval reads ``inf``); nothing
        fresh delivered means clamped to ``period``."""
        mirror = self.mirror
        for i, frame_id in enumerate(self.frame_ids):
            mirror.submit(i, modes[i] == 1, frame_id, t)
        delays: List[Optional[float]] = [None] * self.n
        draw = self._draw_loss
        for index, release, delivery in mirror.advance_to(t + period):
            if draw is not None and draw():
                self._lost += 1
                delays[index] = inf
            # Exact compare: a fresh delivery's release *is* this
            # barrier's float; a stale one is at least a period older.
            elif release == t:
                delays[index] = min(delivery - t, period)
        for i, delay in enumerate(delays):
            if delay is None:
                delays[i] = period
                self._clamped += 1
        return delays

    def _live_delays(self, t: float, period: float, modes: List[int]) -> List:
        """One interval from the live network: the event kernel's eager
        ``sample_delays`` call, submissions in roster order."""
        submissions = [
            Submission(
                name=app.name,
                spec=app.frame,
                uses_tt=mode == 1,
                slot=app.slot if mode == 1 else None,
                release_time=t,
            )
            for app, mode in zip(self.apps, modes)
        ]
        delays = self.sim.network.sample_delays(t, period, submissions)
        return [delays[name] for name in self.names]

    def _run_eager(self) -> None:
        """Shared-period sweep: the event kernel's eager barrier sequence
        (disturb, grant, update, re-grant, hand over slots, control,
        resolve one interval, equalize, sweep) with the schedule walk or
        the live network resolving the interval."""
        sim = self.sim
        arbiter = sim.arbiter
        resolve = self._live_delays if self.live else self._mirror_delays
        n = self.n
        app_range = range(n)
        period = self.periods[0]
        steps = self.steps[0]
        states = self.states
        held = self.held
        runtimes = self.runtimes
        appenders = self.appenders
        neg_dots = [(et.dot, tt.dot) for et, tt in self.neg_gains]
        designs = self.designs
        equalize = sim.equalize_delays
        thresholds = [rt.threshold for rt in runtimes]
        fastable = [rt.tt_allowed for rt in runtimes]
        dist_state = self.dist_state
        names = self.names
        group_of = self.group_of
        scalar_control = self.scalar_control
        gain_groups = self.gain_groups
        idx_of = {name: i for i, name in enumerate(names)}
        et_steady = CommState.ET_STEADY
        tt_holding = CommState.TT_HOLDING
        waiting = CommState.WAITING
        concat = np.concatenate
        dist_steps: Dict[int, List[Tuple[int, object]]] = {}
        for i, by_k in enumerate(self.dist_at):
            for k, events in by_k.items():
                dist_steps.setdefault(k, []).extend((i, e) for e in events)
        slot_owner: Dict[int, Optional[str]] = {a.slot: None for a in self.apps}
        norms = [0.0] * n
        comms: List[CommState] = [et_steady] * n
        modes = [0] * n
        us: List[Optional[np.ndarray]] = [None] * n
        token_mats: Dict[Tuple, Tuple] = {}
        violations = 0
        for k in range(steps):
            t = k * period
            events = dist_steps.get(k)
            if events is not None:
                for i, event in events:
                    states[i] = states[i] + event.magnitude * dist_state[i]
                    runtimes[i].on_disturbance(t)
            arbiter.grant_pending()
            self._compute_norms(norms)
            for i in app_range:
                norm = norms[i]
                rt = runtimes[i]
                if fastable[i] and rt.state is et_steady and norm <= thresholds[i]:
                    # update() is a no-op below threshold in ET_STEADY.
                    comms[i] = et_steady
                else:
                    comms[i] = rt.update(t, norm)
            for name in arbiter.grant_pending():
                i = idx_of[name]
                if runtimes[i].state is waiting:
                    comms[i] = runtimes[i].update(t, norms[i])
            self._propagate_slots(slot_owner)
            for i in app_range:
                mode = 1 if comms[i] is tt_holding else 0
                modes[i] = mode
                if scalar_control[i]:
                    us[i] = neg_dots[i][mode](concat((states[i], held[i])))
            if gain_groups:
                self._apply_control_groups(modes, us)
            delays = resolve(t, period, modes)
            buckets: Dict[Tuple, List[int]] = {}
            lost: List[Tuple[int, np.ndarray]] = []
            for i in app_range:
                delay = delays[i]
                if not isfinite(delay):
                    # The command never reached the actuator: the
                    # previous input holds for the whole period and
                    # stays latched (no equalization either).
                    delay = period
                    lost.append((i, held[i]))
                elif equalize:
                    design = designs[i][modes[i]]
                    if delay <= design + 1e-12:
                        delay = design
                    else:
                        violations += 1
                append = appenders[i]
                append[0](t)
                append[1](norms[i])
                append[2](comms[i])
                append[3](delay)
                gid = group_of[i]
                token = (gid, delay_key(delay))
                if token not in token_mats:
                    token_mats[token] = self._token_mats(gid, delay)
                bucket = buckets.get(token)
                if bucket is None:
                    buckets[token] = [i]
                else:
                    bucket.append(i)
            self._sweep(buckets, token_mats, states, us, held)
            for i in app_range:
                held[i] = us[i]
            for i, previous in lost:
                held[i] = previous
        sim.jitter_violations += violations
        final_time = steps * period
        for i in app_range:
            x = states[i]
            append = appenders[i]
            append[0](final_time)
            append[1](sqrt(x.dot(x)))
            append[2](runtimes[i].state)
            append[3](0.0)
            self.traces[names[i]].response_times = runtimes[i].response_times()

    def _run_lazy(self) -> None:
        """Multi-rate sweep: barriers on integer-ns timestamps; the
        schedule advances to each barrier's flush instant (the float
        time of the last event the event kernel pops there) and each
        interval resolves at the owner's next tick, matched by exact
        release-float equality."""
        sim = self.sim
        arbiter = sim.arbiter
        mirror = self.mirror
        equalize = sim.equalize_delays
        states = self.states
        held = self.held
        runtimes = self.runtimes
        appenders = self.appenders
        neg_dots = [(et.dot, tt.dot) for et, tt in self.neg_gains]
        designs = self.designs
        dist_at = self.dist_at
        dist_state = self.dist_state
        names = self.names
        frame_ids = self.frame_ids
        group_of = self.group_of
        periods = self.periods
        steps = self.steps
        idx_of = {name: i for i, name in enumerate(names)}
        tt_holding = CommState.TT_HOLDING
        waiting = CommState.WAITING
        concat = np.concatenate
        delay_lists = [self.traces[name].delays for name in names]
        times_f: List[List[float]] = []
        barriers: Dict[int, Tuple[List[Tuple[int, int]], List[int]]] = {}
        for i in range(self.n):
            grid = np.arange(steps[i] + 1, dtype=np.float64) * periods[i]
            ns = np.rint(grid * 1e9).astype(np.int64)
            times_f.append(grid.tolist())
            keys = ns.tolist()
            for k in range(steps[i]):
                barriers.setdefault(keys[k], ([], []))[0].append((i, k))
            barriers.setdefault(keys[steps[i]], ([], []))[1].append(i)
        slot_owner: Dict[int, Optional[str]] = {a.slot: None for a in self.apps}
        #: per app: ``[u, release_float, mode, trace_index, delivery, lost]``.
        pending: List[Optional[List]] = [None] * self.n
        lazy_tokens: Dict[Tuple, Tuple] = {}
        norms: Dict[int, float] = {}
        draw = self._draw_loss
        violations = 0
        clamped = 0
        for key in sorted(barriers):
            due, finals = barriers[key]
            flush = [times_f[i][k] for i, k in due]
            flush.extend(times_f[i][steps[i]] for i in finals)
            # 1. Advance the schedule to this barrier — the event kernel
            #    flushes at the float time of the *last* event popped,
            #    i.e. the max of the coincident k * period products —
            #    and match deliveries to in-flight intervals by exact
            #    release float (a stale one differs by a full period),
            #    drawing loss per delivery before that match.
            for index, release, delivery in mirror.advance_to(max(flush)):
                lost = draw is not None and draw()
                if lost:
                    self._lost += 1
                record = pending[index]
                if record is not None and record[1] == release:
                    record[4] = delivery
                    record[5] = lost
            # 2. Resolve every interval ending at this barrier (the
            #    event kernel's _resolve: due first, then finals).
            buckets: Dict[Tuple, List[int]] = {}
            token_mats: Dict[Tuple, Tuple] = {}
            resolved: List[Tuple[int, np.ndarray, bool]] = []
            us: Dict[int, np.ndarray] = {}
            for i in [*(i for i, _ in due), *finals]:
                record = pending[i]
                if record is None:
                    continue  # the very first tick has no interval behind it
                pending[i] = None
                u, release, mode, trace_index, delivery, lost = record
                if lost:
                    # Never reached the actuator: the previous input
                    # holds and stays latched, nothing to equalize.
                    delay = periods[i]
                else:
                    if delivery is None:
                        # Missed the whole interval: hold the previous input.
                        delay = periods[i]
                        clamped += 1
                    else:
                        delay = min(delivery - release, periods[i])
                    if equalize:
                        design = designs[i][mode]
                        if delay <= design + 1e-12:
                            delay = design
                        else:
                            violations += 1
                delay_lists[i][trace_index] = delay
                us[i] = u
                resolved.append((i, u, lost))
                gid = group_of[i]
                token = (gid, delay_key(delay))
                if token not in token_mats:
                    mats = lazy_tokens.get(token)
                    if mats is None:
                        mats = self._token_mats(gid, delay)
                        lazy_tokens[token] = mats
                    token_mats[token] = mats
                bucket = buckets.get(token)
                if bucket is None:
                    buckets[token] = [i]
                else:
                    bucket.append(i)
            if resolved:
                self._sweep(buckets, token_mats, states, us, held)
                for i, u, lost in resolved:
                    if not lost:
                        held[i] = u
            # 3. Horizon samples for applications finishing here.
            for i in finals:
                x = states[i]
                append = appenders[i]
                append[0](steps[i] * periods[i])
                append[1](sqrt(x @ x))
                append[2](runtimes[i].state)
                append[3](0.0)
                self.traces[names[i]].response_times = runtimes[i].response_times()
            if not due:
                continue
            # 4. Disturbances, arbitration and state machines.
            for i, k in due:
                events = dist_at[i].get(k)
                if events:
                    tick = times_f[i][k]
                    for event in events:
                        states[i] = states[i] + event.magnitude * dist_state[i]
                        runtimes[i].on_disturbance(tick)
            arbiter.grant_pending()
            comms: Dict[int, CommState] = {}
            ticks: Dict[int, float] = {}
            for i, k in due:
                x = states[i]
                norm = sqrt(x @ x)
                norms[i] = norm
                tick = times_f[i][k]
                ticks[i] = tick
                comms[i] = runtimes[i].update(tick, norm)
            for name in arbiter.grant_pending():
                i = idx_of[name]
                if i in comms and runtimes[i].state is waiting:
                    comms[i] = runtimes[i].update(ticks[i], norms[i])
            # 5. Slot hand-over, controls, submissions; the trace delay
            #    is patched when the interval resolves, like the event
            #    kernel's NaN placeholder.
            self._propagate_slots(slot_owner)
            for i, k in due:
                comm = comms[i]
                mode = 1 if comm is tt_holding else 0
                release = times_f[i][k]
                u = neg_dots[i][mode](concat((states[i], held[i])))
                append = appenders[i]
                append[0](release)
                append[1](norms[i])
                append[2](comm)
                append[3](float("nan"))
                mirror.submit(i, mode == 1, frame_ids[i], release)
                pending[i] = [u, release, mode, len(delay_lists[i]) - 1, None, False]
        sim.jitter_violations += violations
        self._clamped += clamped


__all__ = ["flexray_deterministic"]
