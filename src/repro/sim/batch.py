"""Batch fast path for the co-simulator: one eager and one lazy loop.

The event kernel pays full freight for every sample: queue pushes and
pops per tick, :class:`~repro.sim.network.Submission` objects, and delay
equalization recomputed per sample.  The batch kernel removes that
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

Two loops mirror the event kernel's delay-resolution modes: **eager**
for a shared period (the whole roster resolves one interval per
barrier) and **lazy** for multi-rate fleets (each interval resolves at
its owner's next tick).  How a barrier's delays are found is the only
thing that differs between networks, so both loops read them from a
*delay source* chosen by the strategy :func:`batch_capability` returns —
which asks the network's own ``capabilities()`` descriptor (the frozen
:mod:`repro.sim.network` protocol):

* ``"analytic"`` — :class:`_AnalyticDelays`: per-mode constants of a
  stock :class:`~repro.sim.network.AnalyticNetwork` (subclasses could
  override the delay model, so they never inherit the claim);
* ``"flexray"`` and ``"can"`` — :class:`_BusDelays`: a stock
  :class:`~repro.sim.network.FlexRayNetwork` without background
  dynamic-segment traffic, on stock bus and segment classes, or a stock
  :class:`~repro.sim.network.CanBusNetwork`, bare or inside one stock
  :class:`~repro.sim.network.LossyNetwork`.  The source drives the
  bus's own tuple-level core — the FlexRay cycle walk or the CAN
  arbitration loop, which the event interface wraps — so no
  ``Submission`` or ``Delivery`` is built per message, and both kernels'
  deliveries come from the same code.  The bus state is the real one,
  so a bus a previous run left in use is fine and nothing is written
  back;
* ``"live"`` — :class:`_LiveDelays`, for any other shared-period fleet
  (other loss wrappers, background traffic, subclassed networks or bus
  parts, duck-typed networks): the eager loop drives the real network through
  ``on_slot_change`` and ``sample_delays`` exactly as the event
  kernel's eager mode does;
* ``None`` — a multi-rate fleet on a network without a strategy runs
  on the event kernel; :class:`~repro.sim.cosim.CoSimulator` handles
  the fallback transparently under ``kernel="auto"`` and records the
  choice in the cosim artifact's ``kernel_used``.

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
from repro.sim.network.can import CanBusNetwork
from repro.sim.network.protocol import BATCH_STRATEGIES, Submission
from repro.sim.runtime import CommState
from repro.sim.stepper import GLOBAL_ZOH_CACHE, _dynamics_key, delay_key
from repro.sim.trace import AppTrace, SimulationTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cosim import CoSimulator


def batch_capability(sim: "CoSimulator") -> Optional[str]:
    """Which batch path covers this co-simulation.

    The network *describes itself*: its ``capabilities()`` descriptor
    (see :class:`repro.sim.network.NetworkCapabilities`) names the
    precomputation strategy it opts into, so third-party backends can
    claim one without this module knowing their classes.

    * ``"analytic"`` — delays are per-mode constants
      (``tt_delay``/``et_delay``); the network needs no cycle-accurate
      stepping.  Claimed by stock
      :class:`~repro.sim.network.AnalyticNetwork` instances.
    * ``"flexray"`` — a FlexRay bus driven through its own tuple-level
      cycle core, the network's i.i.d. loss drawn once per control
      delivery.  Claimed by stock
      :class:`~repro.sim.network.FlexRayNetwork` instances without
      background traffic, on stock bus and segment classes.
    * ``"can"`` — a CAN bus driven through its own tuple-level
      arbitration core, a wrapper's loss drawn once per delivery.
      Claimed by stock :class:`~repro.sim.network.CanBusNetwork`
      instances and by a stock
      :class:`~repro.sim.network.LossyNetwork` around one.
    * ``"live"`` — no strategy, shared period: the batch loop drives the
      network object itself (``on_slot_change``/``sample_delays``, the
      event kernel's eager calls), so delays, loss, clamps and
      statistics come from the network.
    * ``None`` — no strategy and mixed sampling periods; the fleet runs
      on the event kernel, whose lazy resolution needs the network's
      event interface.

    The bundled backends never claim a strategy from a subclass (an
    override could change the delay or transport model the strategy
    replays), so subclasses and capability-less duck-types take the
    live path — unless they deliberately override ``capabilities()``
    to opt back in.
    """
    describe = getattr(sim.network, "capabilities", None)
    if describe is not None:
        strategy = describe().batch_strategy
        if strategy in BATCH_STRATEGIES:
            return strategy
    if sim.period is not None:
        return "live"
    return None


# -- delay sources -----------------------------------------------------------
#
# A delay source answers the two loops' only network question.  The
# eager loop calls ``interval(t, period, modes)`` once per barrier for
# the whole roster (``inf`` means lost); the lazy loop calls
# ``submit(i, mode, release)`` per released sample and
# ``advance_to(t)`` per barrier, which returns ``(i, release, delivery,
# lost)`` tuples, and counts the intervals it clamped in ``clamped``.
# ``on_slot_change`` is the ownership sink (``None`` when the source
# ignores slot ownership), and ``settle()`` leaves the network's
# counters where the event kernel would.


class _AnalyticDelays:
    """Per-mode constants of a stock
    :class:`~repro.sim.network.AnalyticNetwork`.

    Eager intervals see ``min(c, period)``, the network's
    ``sample_delays``; a lazy submission is delivered at
    ``release + c`` on the next advance, as ``event_advance`` reports
    it, so the lazy loop's ``min(delivery - release, period)`` is the
    event kernel's product.  The analytic network delivers every
    submitted message.
    """

    #: ownership is irrelevant for constant delays
    on_slot_change = None
    clamped = 0

    def __init__(self, network, messages: int) -> None:
        self.network = network
        self.messages = messages
        #: ``(et, tt)`` delays, indexed by mode.
        self.constants = (float(network.et_delay), float(network.tt_delay))
        self.inflight: List[Tuple[int, float, float, bool]] = []

    def interval(self, t: float, period: float, modes: List[int]) -> List[float]:
        clamped = [min(c, period) for c in self.constants]
        return [clamped[mode] for mode in modes]

    def submit(self, i: int, mode: int, release: float) -> None:
        self.inflight.append((i, release, release + self.constants[mode], False))

    def advance_to(self, t: float) -> List[Tuple[int, float, float, bool]]:
        delivered, self.inflight = self.inflight, []
        return delivered

    def settle(self) -> None:
        network = self.network
        if hasattr(network, "delivered"):
            network.delivered += self.messages


class _BusDelays:
    """A stock bus driven through its own tuple core: a
    :class:`~repro.sim.network.FlexRayNetwork`'s ``FlexRayBus``
    (``"flexray"``), or a :class:`~repro.sim.network.CanBusNetwork`,
    bare or inside one stock :class:`~repro.sim.network.LossyNetwork`
    (``"can"``).  Both kernels' deliveries therefore come from the same
    code; only the enqueue is per bus, with each application's frame
    id, name and wire time (CAN) or minislot count (FlexRay) computed
    once.  A FlexRay TT submission goes to the frame's owned slot and an
    ET one to the dynamic segment; slot ownership follows the network's
    own ``on_slot_change``.

    Eager intervals follow the outer network's inherited
    ``sample_delays``: every delivery keyed by an application name draws
    the loss process (the FlexRay network's i.i.d. stream, or the
    wrapper's) once, before the staleness check, and a lost draw reads
    ``inf``; a fresh delivery reads ``min(delivery - t, period)``, and
    an application with neither is clamped to ``period``.  Lazy
    advances draw once per named delivery too, stale ones included, as
    ``event_advance`` does; deliveries of background ``Message``
    objects queued before the run are stamped and skipped.  The bus
    state is the real one, so nothing is mirrored; the clamps and
    losses counted here land on the outer network's ``clamped`` and
    ``lost`` on settle.
    """

    def __init__(self, network, apps, strategy: str) -> None:
        self.network = network
        self.on_slot_change = None
        if strategy == "flexray":
            bus = network.bus
            dynamic = bus.dynamic
            loss = network._loss
            self.on_slot_change = network.on_slot_change
            self.tt, self.et = bus._enqueue_tt, dynamic._enqueue
            extras = [dynamic.minislots_of(a.frame) for a in apps]
        else:
            bus, loss = network, None
            if not isinstance(network, CanBusNetwork):  # a stock LossyNetwork
                bus, loss = network.inner, network.loss
            self.tt, self.et = None, bus._enqueue
            extras = [bus.wire_time(a.frame.payload_bits) for a in apps]
        self.advance = bus._advance
        self.draw = None if loss is None else loss.sample
        #: per app: ``(frame_id, name, wire time or minislots)``.
        self.roster = [
            (a.frame.frame_id, a.name, extra) for a, extra in zip(apps, extras)
        ]
        self.index = {a.name: i for i, a in enumerate(apps)}
        self.clamped = 0
        self.lost = 0

    def interval(self, t: float, period: float, modes: List[int]) -> List[float]:
        submit = self.submit
        for i, mode in enumerate(modes):
            submit(i, mode, t)
        fresh = t - 1e-12
        delays: List[Optional[float]] = [None] * len(self.roster)
        for i, release, delivery, lost in self.advance_to(t + period):
            if lost:
                delays[i] = inf
            elif release >= fresh:
                delays[i] = min(delivery - t, period)
        for i, delay in enumerate(delays):
            if delay is None:
                delays[i] = period
                self.clamped += 1
        return delays

    def submit(self, i: int, mode: int, release: float) -> None:
        frame_id, name, extra = self.roster[i]
        if mode == 1 and self.tt is not None:
            self.tt(frame_id, release, name)
        else:
            self.et(frame_id, release, name, extra)

    def advance_to(self, t: float) -> List[Tuple[int, float, float, bool]]:
        index = self.index
        draw = self.draw
        out = []
        for key, release, delivery in self.advance(t):
            if not isinstance(key, str):  # a background Message
                key.delivery_time = delivery
                continue
            lost = draw is not None and draw()
            if lost:
                self.lost += 1
            i = index.get(key)
            if i is not None:
                out.append((i, release, delivery, lost))
        return out

    def settle(self) -> None:
        self.network.clamped += self.clamped
        if self.lost:  # only a loss process draws
            self.network.lost += self.lost


class _LiveDelays:
    """The network object itself, called exactly as the event kernel's
    eager mode calls it (shared period only): ``on_slot_change`` on every
    ownership hand-over and one ``sample_delays`` per barrier with the
    roster's submissions in roster order, so delays, loss draws, clamps
    and statistics all stay with the network."""

    def __init__(self, network, apps) -> None:
        self.network = network
        self.apps = apps
        self.names = [a.name for a in apps]
        self.on_slot_change = network.on_slot_change

    def interval(self, t: float, period: float, modes: List[int]) -> List[float]:
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
        delays = self.network.sample_delays(t, period, submissions)
        return [delays[name] for name in self.names]

    def settle(self) -> None:
        pass  # the network kept its own counters


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

    ``capability`` is the strategy :func:`batch_capability` returned; it
    picks the delay source both loops read.
    """

    def __init__(self, sim: "CoSimulator", horizon: float, capability: str):
        self.sim = sim
        self.apps = apps = sim.applications
        self.n = n = len(apps)
        self.periods = [sim.period_of(a) for a in apps]
        self.eager = len({round(p, 12) for p in self.periods}) == 1
        self.steps = [int(np.ceil(horizon / p)) for p in self.periods]
        self.traces = SimulationTrace(horizon=horizon)
        cache = GLOBAL_ZOH_CACHE
        self.names = [a.name for a in apps]
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
        network = sim.network
        if capability == "analytic":
            self.source = _AnalyticDelays(network, sum(self.steps))
        elif capability in ("flexray", "can"):
            self.source = _BusDelays(network, apps, capability)
        else:
            self.source = _LiveDelays(network, apps)

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

    def _propagate_slots(self, slot_owner: Dict[int, Optional[str]]) -> None:
        """The event kernel's transmit-phase ownership hand-over, told to
        the delay source."""
        arbiter = self.sim.arbiter
        sink = self.source.on_slot_change
        names = self.names
        for app in self.apps:
            slot = app.slot
            holder = arbiter.holder_of_slot(slot)
            if slot_owner[slot] != holder:
                spec = None
                if holder is not None:
                    spec = self.apps[names.index(holder)].frame
                sink(slot, spec)
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
        self.source.settle()
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
        source = self.source
        interval = source.interval
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
        idx_of = {name: i for i, name in enumerate(self.names)}
        et_steady = CommState.ET_STEADY
        tt_holding = CommState.TT_HOLDING
        waiting = CommState.WAITING
        concat = np.concatenate
        # Disturbances flattened per step, application-major.
        dist_steps: Dict[int, List[Tuple[int, object]]] = {}
        for i, by_k in enumerate(self.dist_at):
            for k, events in by_k.items():
                dist_steps.setdefault(k, []).extend((i, e) for e in events)
        slot_owner = None
        if source.on_slot_change is not None:
            slot_owner = {a.slot: None for a in self.apps}
        norms = [0.0] * n
        comms: List[CommState] = [et_steady] * n
        modes = [0] * n
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
            for i in app_range:
                x = states[i]
                norm = sqrt(x.dot(x))
                norms[i] = norm
                rt = runtimes[i]
                if fastable[i] and rt.state is et_steady and norm <= thresholds[i]:
                    # update() is a no-op below threshold in ET_STEADY.
                    comms[i] = et_steady
                    modes[i] = 0
                else:
                    comm = comms[i] = rt.update(t, norm)
                    modes[i] = 1 if comm is tt_holding else 0
            for name in arbiter.grant_pending():
                i = idx_of[name]
                if runtimes[i].state is waiting:
                    comm = comms[i] = runtimes[i].update(t, norms[i])
                    modes[i] = 1 if comm is tt_holding else 0
            if slot_owner is not None:
                self._propagate_slots(slot_owner)
            delays = interval(t, period, modes)
            latched = []
            for i in app_range:
                mode = modes[i]
                us[i] = controls[i][mode](concat((states[i], held[i])))
                rule = rules[i][mode].get(delays[i])
                if rule is None:
                    rule = self._rule(i, mode, delays[i])
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
        """Multi-rate sweep: barriers on integer-ns timestamps; the delay
        source advances to each barrier's flush instant (the float time
        of the last event the event kernel pops there) and each interval
        resolves at the owner's next tick, matched by exact
        release-float equality."""
        sim = self.sim
        arbiter = sim.arbiter
        source = self.source
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
        idx_of = {name: i for i, name in enumerate(self.names)}
        tt_holding = CommState.TT_HOLDING
        waiting = CommState.WAITING
        concat = np.concatenate
        delay_lists = [self.traces[name].delays for name in self.names]
        # Per-application tick grids (floats are the same k * period
        # products the event kernel schedules), bucketed into barriers
        # ``[due (app, k) pairs, finishing apps, flush instant]``.  The
        # event kernel flushes at the float time of the *last* event it
        # pops, i.e. the largest coincident k * period.
        times_f: List[List[float]] = []
        barriers: Dict[int, List] = {}
        for i in range(self.n):
            grid = np.arange(steps[i] + 1, dtype=np.float64) * periods[i]
            times = grid.tolist()
            times_f.append(times)
            for k, key in enumerate(np.rint(grid * 1e9).astype(np.int64).tolist()):
                barrier = barriers.get(key)
                if barrier is None:
                    barrier = barriers[key] = [[], [], times[k]]
                elif times[k] > barrier[2]:
                    barrier[2] = times[k]
                if k < steps[i]:
                    barrier[0].append((i, k))
                else:
                    barrier[1].append(i)
        slot_owner = None
        if source.on_slot_change is not None:
            slot_owner = {a.slot: None for a in self.apps}
        #: per app: ``[u, release_float, mode, trace_index, delivery, lost]``.
        pending: List[Optional[List]] = [None] * self.n
        us: List[Optional[np.ndarray]] = [None] * self.n
        norms: Dict[int, float] = {}
        violations = 0
        for key in sorted(barriers):
            due, finals, flush = barriers[key]
            # 1. Advance the source to this barrier and match deliveries
            #    to in-flight intervals by exact release float (a stale
            #    one differs by a full period).
            for index, release, delivery, lost in source.advance_to(flush):
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
                    source.clamped += 1
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
                norm = sqrt(x.dot(x))
                norms[i] = norm
                tick = times_f[i][k]
                ticks[i] = tick
                comms[i] = runtimes[i].update(tick, norm)
            for name in arbiter.grant_pending():
                i = idx_of[name]
                if i in comms and runtimes[i].state is waiting:
                    comms[i] = runtimes[i].update(ticks[i], norms[i])
            # 5. Slot hand-over, controls, submissions.
            if slot_owner is not None:
                self._propagate_slots(slot_owner)
            for i, k in due:
                comm = comms[i]
                mode = 1 if comm is tt_holding else 0
                release = times_f[i][k]
                u = controls[i][mode](concat((states[i], held[i])))
                append = appenders[i]
                append[0](release)
                append[1](norms[i])
                append[2](comm)
                append[3](float("nan"))
                source.submit(i, mode, release)
                pending[i] = [u, release, mode, len(delay_lists[i]) - 1, None, False]
        sim.jitter_violations += violations


__all__ = ["batch_capability"]
