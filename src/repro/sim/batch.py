"""Batch fast path for the co-simulator: one eager and one lazy loop.

The event kernel pays full freight for every sample: queue pushes and
pops per tick, per-interval records, and delay equalization recomputed
per sample.  The batch kernel removes that
bookkeeping:

* per-application **sampling-tick grids** are precomputed up front (the
  multi-rate barrier structure is derived once by bucketing tick times
  on the same integer-nanosecond timestamps the event kernel coalesces
  on — no event queue at run time), together with each barrier's flush
  instant;
* the **interval rule** — a lost frame holds the previous input for the
  whole period, any other delay is equalized to the mode's design delay
  — is memoised per ``(application, mode, delay)`` together with its
  jitter-violation flag and plant-sweep bucket;
* same-dynamics plants stepping with the same delay advance in
  **NumPy-stacked sweeps**, exactly the way
  :meth:`~repro.sim.stepper.PlantStepperBank.step_all` stacks them so
  the arithmetic stays bitwise identical; the sweep plan is memoised per
  tuple of ``(application, bucket)`` and the ``Phi``/``Gamma``
  transposes are hoisted out of the loop.

The fast path reproduces the event kernel **bitwise**: same operation
sequence per barrier (disturbances, arbitration, state-machine updates,
slot hand-over, controls, delays, plant sweeps), same float products
for every recorded time, norm and delay.  The test suite asserts trace
equality against the event kernel.

Two loops mirror the event kernel's delay-resolution modes, and both
drive the network through its own methods, with the same calls in the
same order as the event kernel:

* **eager**, for a shared period: ``on_slot_change`` on every
  ownership hand-over and one ``sample_delays`` per barrier with the
  roster's submissions in roster order;
* **lazy**, for multi-rate fleets: at each barrier ``event_advance`` to
  the barrier's flush instant, ``event_clamped`` per interval that saw
  no delivery, and one ``event_submit(flush, window_end, submissions)``
  whose window ends at the next barrier's earliest tick, so backends
  that synthesize traffic per window see the event kernel's windows.

So every fleet runs here, on any network: delays, loss draws, clamps
and statistics all stay with the network.  The ownership walk only runs
when the arbiter moved a holder since the last walk, which changes none
of the calls the walk makes.

Norms and controls stay per application — ``sqrt(x.dot(x))`` and
``(-K).dot(concatenate((x, held)))`` — and plants left alone in their
bucket step with scalar products.  Grouped formulations (row-stacked
norms, one matmul per same-gain group, 3-D matmuls across different
dynamics) need a start-up probe per platform to stay bitwise exact, and
on a shared 2-core x86-64 host each lost to the scalar path (median of
12 alternating pairs, ``CoSimulator.run`` CPU time): the fig5 analytic
run took 0.78x the time with the cross-dynamics stacking off, 0.83x
with norm groups off against forced on, and fleets of 2 and 6 identical
plants 0.77x and 0.83x with control groups off against forced on.
"""

from __future__ import annotations

from math import inf, isfinite, sqrt
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

# Importing cosim here is safe: cosim never imports this module at load
# time (only lazily inside CoSimulator.run), so there is no cycle.
# Sharing _TIME_TOL matters — the disturbance-to-tick mapping must use
# the exact same ceil() product as the event kernel.
from repro.sim.cosim import _TIME_TOL
from repro.sim.runtime import CommState
from repro.sim.stepper import GLOBAL_ZOH_CACHE, _dynamics_key, delay_key
from repro.sim.trace import AppTrace, SimulationTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cosim import CoSimulator


class _BatchKernel:
    """Vectorized co-simulation over precomputed tick grids.

    Mirrors the event kernel's two delay-resolution modes:

    * **eager** (shared period): each barrier computes controls, delays
      and plant sweeps for the whole roster at once — the event
      kernel's eager operation sequence with the per-sample network and
      bookkeeping costs hoisted out of the loop;
    * **lazy** (multi-rate): each application's interval is stepped at
      its *next* tick, exactly when the event kernel resolves it, so
      the plant-sweep stacking — and therefore the floating-point
      result — matches barrier for barrier.
    """

    def __init__(self, sim: "CoSimulator", horizon: float):
        self.sim = sim
        self.apps = apps = sim.applications
        self.n = n = len(apps)
        self.periods = [sim.period_of(a) for a in apps]
        self.eager = len({round(p, 12) for p in self.periods}) == 1
        self.steps = [int(np.ceil(horizon / p)) for p in self.periods]
        self.traces = SimulationTrace(horizon=horizon)
        cache = GLOBAL_ZOH_CACHE
        self.names = [a.name for a in apps]
        self.frames = [a.frame for a in apps]
        self.runtimes = [sim.runtimes[name] for name in self.names]
        self.states: List[np.ndarray] = []
        self.held: List[np.ndarray] = []
        self.dist_state: List[np.ndarray] = []
        self.appenders: List[Tuple] = []
        #: per app: bound ``(-gain_et).dot, (-gain_tt).dot`` — negation
        #: distributes exactly over the matmul, so ``(-K) @ z == -(K @ z)``
        #: bitwise.
        self.controls: List[Tuple] = []
        self.designs: List[Tuple[float, float]] = []  # (et, tt) mode delays
        group_ids: Dict[Tuple, int] = {}
        self.group_of: List[int] = []
        self.discs: List = []  # per group, the cached discretisation
        for i, app in enumerate(apps):
            period = self.periods[i]
            disc = cache.plant(app.dynamics, period)
            key = (_dynamics_key(app.dynamics), round(period, 12))
            gid = group_ids.setdefault(key, len(group_ids))
            if gid == len(self.discs):
                self.discs.append(disc)
            self.group_of.append(gid)
            self.states.append(np.zeros(app.dynamics.n_states))
            self.held.append(np.zeros(app.app.et.plant.n_inputs))
            self.dist_state.append(app.disturbance_state)
            trace = AppTrace(
                name=app.name, threshold=app.app.threshold, deadline=app.deadline
            )
            self.traces.add(trace)
            self.appenders.append(
                (
                    trace.times.append,
                    trace.norms.append,
                    trace.states.append,
                    trace.delays.append,
                )
            )
            self.controls.append(((-app.app.et.gain).dot, (-app.app.tt.gain).dot))
            self.designs.append((app.app.et.plant.delay, app.app.tt.plant.delay))
        # Disturbance arrivals on the owning application's tick grid —
        # the event kernel's exact ceil() product decides the tick.
        self.dist_at: List[Dict[int, List]] = [dict() for _ in range(n)]
        for i, app in enumerate(apps):
            p = self.periods[i]
            for event in app.disturbances.events_until(horizon):
                k = max(0, int(np.ceil((event.time - _TIME_TOL) / p)))
                if k >= self.steps[i]:
                    continue
                self.dist_at[i].setdefault(k, []).append(event)
        #: per app and mode: delay -> ``(delay, violation, member, lost)``.
        self.rules: List[Tuple[Dict, Dict]] = [({}, {}) for _ in range(n)]
        #: ``(group, delay bucket)`` token -> hoisted operators.
        self.token_mats: Dict[Tuple, Tuple] = {}
        #: tuple of ``(app, token)`` members -> plant-sweep plan.
        self.plans: Dict[Tuple, List[Tuple]] = {}
        #: slot -> holder the network was last told about
        self.slot_owner: Dict[int, Optional[str]] = {a.slot: None for a in apps}
        #: the arbiter's hand-over count at the last ownership walk
        self.handovers_seen: Optional[int] = None

    # -- the interval rule and the sweep plan ------------------------------

    def _rule(self, i: int, mode: int, delay: float) -> Tuple:
        """``(delay, violation, member, lost)`` for one interval of
        application ``i`` in ``mode`` whose message took ``delay``,
        memoised in :attr:`rules`.

        A lost frame (a non-finite delay) never reached the actuator:
        the previous input holds for the whole period and stays latched,
        and nothing is equalized.  Any other delay is equalized to the
        mode's design delay when the simulator equalizes.  ``member`` is
        ``(i, token)``, the application's plant-sweep bucket.
        """
        raw = delay
        lost = not isfinite(delay)
        violation = 0
        if lost:
            delay = self.periods[i]
        elif self.sim.equalize_delays:
            design = self.designs[i][mode]
            if delay <= design + 1e-12:
                delay = design
            else:
                violation = 1
        gid = self.group_of[i]
        token = (gid, delay_key(delay))
        if token not in self.token_mats:
            self.token_mats[token] = self._token_mats(gid, delay)
        rule = (delay, violation, (i, token), lost)
        self.rules[i][mode][raw] = rule
        return rule

    def _token_mats(self, gid: int, delay: float):
        """Hoisted operators for one ``(group, delay-bucket)``: bound
        ``.dot`` methods of the same arrays (and ``.T`` views)
        ``step_all`` would fetch per call.  ``ndarray.dot`` and ``@``
        dispatch to the same BLAS routines for these shapes (the parity
        tests pin the bitwise identity); the bound method skips the
        operator protocol on every hot-loop call."""
        disc = self.discs[gid]
        gamma0, gamma1 = disc.gammas(delay)
        phi = disc.phi
        return (phi.dot, gamma0.dot, gamma1.dot, phi.T, gamma0.T, gamma1.T)

    def _plan(self, members: Tuple) -> List[Tuple]:
        """The plant-sweep plan for one tuple of ``(app, token)``
        members, memoised in :attr:`plans`: one entry per bucket,
        carrying its hoisted operators, its index list and, for a bucket
        of one, that index.  Bucket order is free: plants are mutually
        independent within one instant."""
        buckets: Dict[Tuple, List[int]] = {}
        for i, token in members:
            buckets.setdefault(token, []).append(i)
        plan = [
            (*self.token_mats[token], idxs, idxs[0] if len(idxs) == 1 else None)
            for token, idxs in buckets.items()
        ]
        self.plans[members] = plan
        return plan

    def _sweep(self, plan: List[Tuple], us: List) -> None:
        """Advance the planned plants one interval — the arithmetic of
        ``PlantStepperBank.step_all``: scalar matvecs for a bucket of
        one, a stacked ``x @ Phi.T`` sweep otherwise (in-place
        accumulation adds the same values without the temporaries)."""
        states = self.states
        held = self.held
        for phi_dot, g0_dot, g1_dot, phi_t, g0t, g1t, idxs, solo in plan:
            if solo is not None:
                advanced = phi_dot(states[solo])
                advanced += g0_dot(us[solo])
                advanced += g1_dot(held[solo])
                states[solo] = advanced
            else:
                x = np.stack([states[i] for i in idxs])
                u = np.stack([us[i] for i in idxs])
                u_prev = np.stack([held[i] for i in idxs])
                advanced = x.dot(phi_t)
                advanced += u.dot(g0t)
                advanced += u_prev.dot(g1t)
                for row, i in enumerate(idxs):
                    states[i] = advanced[row]

    def _propagate_slots(self) -> None:
        """The event kernel's transmit-phase ownership hand-over, told to
        the network; skipped while the arbiter has moved no holder since
        the last walk, when the walk would find nothing to tell."""
        arbiter = self.sim.arbiter
        if arbiter.handovers == self.handovers_seen:
            return
        self.handovers_seen = arbiter.handovers
        slot_owner = self.slot_owner
        names = self.names
        for app in self.apps:
            slot = app.slot
            holder = arbiter.holder_of_slot(slot)
            if slot_owner[slot] != holder:
                spec = None
                if holder is not None:
                    spec = self.frames[names.index(holder)]
                self.sim.network.on_slot_change(slot, spec)
                slot_owner[slot] = holder

    def _finish(self, i: int) -> None:
        """The horizon sample of application ``i``."""
        x = self.states[i]
        runtime = self.runtimes[i]
        append = self.appenders[i]
        append[0](self.steps[i] * self.periods[i])
        append[1](sqrt(x.dot(x)))
        append[2](runtime.state)
        append[3](0.0)
        self.traces[self.names[i]].response_times = runtime.response_times()

    # -- run ---------------------------------------------------------------

    def run(self) -> SimulationTrace:
        if self.eager:
            self._run_eager()
        else:
            self._run_lazy()
        return self.traces

    def _run_eager(self) -> None:
        """Shared-period sweep: the event kernel's eager barrier sequence
        (disturb, grant, update, re-grant, hand over slots, control,
        resolve one interval, equalize, sweep), one pass per sampling
        instant.

        Hot-loop structure:

        * state-machine updates take a fast path while an application
          sits below threshold in ``ET_STEADY`` — ``update()`` is a
          no-op there by inspection, so the call is skipped;
        * the interval rule and the plant-sweep plan are memoised, and
          consecutive instants rarely change either;
        * every matrix product goes through a pre-bound ``.dot``.
        """
        sim = self.sim
        arbiter = sim.arbiter
        sample_delays = sim.network.sample_delays
        names = self.names
        frames = self.frames
        n = self.n
        app_range = range(n)
        period = self.periods[0]
        states = self.states
        held = self.held
        runtimes = self.runtimes
        appenders = self.appenders
        controls = self.controls
        rules = self.rules
        plans = self.plans
        thresholds = [rt.threshold for rt in runtimes]
        fastable = [rt.tt_allowed for rt in runtimes]
        dist_state = self.dist_state
        idx_of = {name: i for i, name in enumerate(names)}
        et_steady = CommState.ET_STEADY
        tt_holding = CommState.TT_HOLDING
        waiting = CommState.WAITING
        concat = np.concatenate
        # Disturbances flattened per step, application-major.
        dist_steps: Dict[int, List[Tuple[int, object]]] = {}
        for i, by_k in enumerate(self.dist_at):
            for k, events in by_k.items():
                dist_steps.setdefault(k, []).extend((i, e) for e in events)
        norms = [0.0] * n
        comms: List[CommState] = [et_steady] * n
        #: per app: whether this sample goes over the TT slot (the mode
        #: index of ``controls``, ``rules`` and ``designs``)
        modes = [False] * n
        us: List[Optional[np.ndarray]] = [None] * n
        members: List[Optional[Tuple]] = [None] * n
        violations = 0
        for k in range(self.steps[0]):
            t = k * period
            events = dist_steps.get(k)
            if events is not None:
                for i, event in events:
                    states[i] = states[i] + event.magnitude * dist_state[i]
                    runtimes[i].on_disturbance(t)
            arbiter.grant_pending()
            handovers = arbiter.handovers
            for i in app_range:
                x = states[i]
                norm = sqrt(x.dot(x))
                norms[i] = norm
                rt = runtimes[i]
                if fastable[i] and rt.state is et_steady and norm <= thresholds[i]:
                    # update() is a no-op below threshold in ET_STEADY.
                    comms[i] = et_steady
                    modes[i] = False
                else:
                    comm = comms[i] = rt.update(t, norm)
                    modes[i] = comm is tt_holding
            if arbiter.handovers != handovers:
                # Only a holder change can free a slot the first grant
                # pass left to a requester.
                for name in arbiter.grant_pending():
                    i = idx_of[name]
                    if runtimes[i].state is waiting:
                        comm = comms[i] = runtimes[i].update(t, norms[i])
                        modes[i] = comm is tt_holding
            self._propagate_slots()
            delays = sample_delays(
                t,
                period,
                [(name, frame, tt, t) for name, frame, tt in zip(names, frames, modes)],
            )
            latched = []
            for i in app_range:
                mode = modes[i]
                us[i] = controls[i][mode](concat((states[i], held[i])))
                raw = delays[names[i]]
                rule = rules[i][mode].get(raw)
                if rule is None:
                    rule = self._rule(i, mode, raw)
                delay, violation, members[i], lost = rule
                violations += violation
                if lost:
                    latched.append((i, held[i]))
                append = appenders[i]
                append[0](t)
                append[1](norms[i])
                append[2](comms[i])
                append[3](delay)
            key = tuple(members)
            plan = plans.get(key)
            if plan is None:
                plan = self._plan(key)
            self._sweep(plan, us)
            held[:] = us
            for i, previous in latched:
                held[i] = previous
        sim.jitter_violations += violations
        for i in app_range:
            self._finish(i)

    def _run_lazy(self) -> None:
        """Multi-rate sweep: barriers on integer-ns timestamps; the
        network advances to each barrier's flush instant (the float time
        of the last event the event kernel pops there) and each interval
        resolves at the owner's next tick, matched by exact
        release-float equality."""
        sim = self.sim
        arbiter = sim.arbiter
        network = sim.network
        event_submit = network.event_submit
        event_advance = network.event_advance
        clamp = getattr(network, "event_clamped", None)
        names = self.names
        frames = self.frames
        states = self.states
        held = self.held
        runtimes = self.runtimes
        appenders = self.appenders
        controls = self.controls
        rules = self.rules
        plans = self.plans
        dist_at = self.dist_at
        dist_state = self.dist_state
        periods = self.periods
        steps = self.steps
        idx_of = {name: i for i, name in enumerate(names)}
        tt_holding = CommState.TT_HOLDING
        waiting = CommState.WAITING
        concat = np.concatenate
        delay_lists = [self.traces[name].delays for name in names]
        # Per-application tick grids (floats are the same k * period
        # products the event kernel schedules), bucketed into barriers
        # ``[due (app, k) pairs, finishing apps, flush instant, earliest
        # tick]``.  The event kernel flushes at the float time of the
        # *last* event it pops, i.e. the largest coincident k * period,
        # and its traffic window ends at the next barrier's earliest.
        times_f: List[List[float]] = []
        barriers: Dict[int, List] = {}
        for i in range(self.n):
            grid = np.arange(steps[i] + 1, dtype=np.float64) * periods[i]
            times = grid.tolist()
            times_f.append(times)
            for k, key in enumerate(np.rint(grid * 1e9).astype(np.int64).tolist()):
                barrier = barriers.get(key)
                if barrier is None:
                    barrier = barriers[key] = [[], [], times[k], times[k]]
                elif times[k] > barrier[2]:
                    barrier[2] = times[k]
                elif times[k] < barrier[3]:
                    barrier[3] = times[k]
                if k < steps[i]:
                    barrier[0].append((i, k))
                else:
                    barrier[1].append(i)
        keys = sorted(barriers)
        window_ends = [barriers[key][3] for key in keys[1:]] + [None]
        #: per app: ``[u, release_float, mode, trace_index, delivery, lost]``.
        pending: List[Optional[List]] = [None] * self.n
        us: List[Optional[np.ndarray]] = [None] * self.n
        norms: Dict[int, float] = {}
        violations = 0
        for key, window_end in zip(keys, window_ends):
            due, finals, flush, _ = barriers[key]
            # 1. Advance the network to this barrier and match deliveries
            #    to in-flight intervals by exact release float (a stale
            #    one differs by a full period).
            for name, release, delivery, lost in event_advance(flush):
                index = idx_of.get(name)
                if index is None:
                    continue
                record = pending[index]
                if record is not None and record[1] == release:
                    record[4] = delivery
                    record[5] = lost
            # 2. Resolve every interval ending at this barrier (the
            #    event kernel's _resolve: due first, then finals); the
            #    trace delay is patched like the event kernel's NaN
            #    placeholder.
            members = []
            fresh = []
            for i in [*(i for i, _ in due), *finals]:
                record = pending[i]
                if record is None:
                    continue  # the very first tick has no interval behind it
                pending[i] = None
                u, release, mode, trace_index, delivery, lost = record
                if lost:
                    delay = inf
                elif delivery is None:
                    # Missed the whole interval: hold the previous input.
                    delay = periods[i]
                    if clamp is not None:
                        clamp()
                else:
                    delay = min(delivery - release, periods[i])
                rule = rules[i][mode].get(delay)
                if rule is None:
                    rule = self._rule(i, mode, delay)
                delay, violation, member, lost = rule
                violations += violation
                delay_lists[i][trace_index] = delay
                us[i] = u
                members.append(member)
                if not lost:
                    fresh.append(i)
            if members:
                plan_key = tuple(members)
                plan = plans.get(plan_key)
                if plan is None:
                    plan = self._plan(plan_key)
                self._sweep(plan, us)
                for i in fresh:
                    held[i] = us[i]
            # 3. Horizon samples for applications finishing here.
            for i in finals:
                self._finish(i)
            if not due:
                if window_end is not None:
                    # Keep background traffic flowing between barriers.
                    event_submit(flush, window_end, [])
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
            handovers = arbiter.handovers
            comms: Dict[int, CommState] = {}
            ticks: Dict[int, float] = {}
            for i, k in due:
                x = states[i]
                norm = sqrt(x.dot(x))
                norms[i] = norm
                tick = times_f[i][k]
                ticks[i] = tick
                comms[i] = runtimes[i].update(tick, norm)
            if arbiter.handovers != handovers:
                for name in arbiter.grant_pending():
                    i = idx_of[name]
                    if i in comms and runtimes[i].state is waiting:
                        comms[i] = runtimes[i].update(ticks[i], norms[i])
            # 5. Slot hand-over, controls, submissions.
            self._propagate_slots()
            submissions = []
            for i, k in due:
                comm = comms[i]
                mode = comm is tt_holding
                release = times_f[i][k]
                u = controls[i][mode](concat((states[i], held[i])))
                append = appenders[i]
                append[0](release)
                append[1](norms[i])
                append[2](comm)
                append[3](float("nan"))
                submissions.append((names[i], frames[i], mode, release))
                pending[i] = [u, release, mode, len(delay_lists[i]) - 1, None, False]
            event_submit(flush, flush if window_end is None else window_end, submissions)
        sim.jitter_violations += violations
