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
  jitter-violation flag and delay token;
* each plant steps with the scalar products
  :meth:`~repro.sim.stepper.PlantStepperBank.step_all` reproduces, over
  bound ``.dot`` methods of its cached ``Phi``/``Gamma`` operators; the
  sweep plan is memoised per tuple of ``(application, delay)`` tokens.

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

Within one run, norms, controls and plant steps are per application —
``sqrt(x.dot(x))``, ``(-K).dot(concatenate((x, held)))`` and the
scalar plant products.  Grouping across the applications of one fleet
(row-stacked norms, one matmul per same-gain group, 3-D matmuls across
different dynamics) needs a start-up probe per platform to stay bitwise
exact, and on a shared 2-core x86-64 host each lost to the scalar path
(median of 12 alternating pairs, ``CoSimulator.run`` CPU time): the
fig5 analytic run took 0.78x the time with the cross-dynamics stacking
off, 0.83x with norm groups off against forced on, and fleets of 2 and
6 identical plants 0.77x and 0.83x with control groups off against
forced on.

Grouping one application across *studies* does pay.  The eager loop
(:func:`run_lockstep`) advances K >= 1 kernels that share one
:func:`lockstep_key` — tick grid and design — barrier by barrier: each
study runs its own barrier sequence, and between barriers each
application's control product and plant sweep run once for the group as
batched 3-D matmuls, exact where the
:func:`~repro.sim.stepper.stacked_safe` probe holds.  Nine fig5 studies
(FlexRay, analytic and CAN at three loss rates) co-simulated 1.8x faster
together than one by one (0.61 s against 1.09-1.15 s of CPU on a shared
2-core x86-64 host), most of what remains being each study's own
network and bookkeeping.  A lone kernel keeps the scalar products.
"""

from __future__ import annotations

from math import inf, isfinite, sqrt
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# Importing cosim here is safe: cosim never imports this module at load
# time (only lazily inside its functions), so there is no cycle.
# Sharing _TIME_TOL matters — the disturbance-to-tick mapping must use
# the exact same ceil() product as the event kernel.
from repro.sim.cosim import _TIME_TOL
from repro.sim.runtime import CommState
from repro.sim.stepper import GLOBAL_ZOH_CACHE, _dynamics_key, delay_key, stacked_safe
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
      its *next* tick, exactly when the event kernel resolves it.
    """

    def __init__(self, sim: "CoSimulator", horizon: float):
        self.sim = sim
        self.apps = apps = sim.applications
        self.n = n = len(apps)
        self.periods = [sim.period_of(a) for a in apps]
        self.eager = sim.period is not None
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
        #: per app: ``(-gain_et, -gain_tt)`` — negation distributes
        #: exactly over the matmul, so ``(-K) @ z == -(K @ z)`` bitwise —
        #: and their bound ``.dot`` methods.
        self.neg_gains: List[Tuple[np.ndarray, np.ndarray]] = []
        self.controls: List[Tuple] = []
        self.designs: List[Tuple[float, float]] = []  # (et, tt) mode delays
        #: per app, the cached discretisation
        self.discs = [cache.plant(a.dynamics, p) for a, p in zip(apps, self.periods)]
        for app in apps:
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
            neg_gains = (-app.app.et.gain, -app.app.tt.gain)
            self.neg_gains.append(neg_gains)
            self.controls.append((neg_gains[0].dot, neg_gains[1].dot))
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
        #: per app and mode: delay -> ``(delay, violation, token, lost)``.
        self.rules: List[Tuple[Dict, Dict]] = [({}, {}) for _ in range(n)]
        #: ``(app, delay key)`` token -> ``(Gamma0, Gamma1)``.
        self.token_gammas: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        #: tuple of tokens -> plant-sweep plan.
        self.plans: Dict[Tuple, List[Tuple]] = {}
        #: slot -> holder the network was last told about
        self.slot_owner: Dict[int, Optional[str]] = {a.slot: None for a in apps}
        #: the arbiter's hand-over count at the last ownership walk
        self.handovers_seen: Optional[int] = None
        #: what the eager barrier hands its products, rewritten in place
        #: every instant: per app the mode (``True`` over the TT slot) and
        #: the delay token, and the apps whose frame was lost.
        self.modes: List[bool] = [False] * n
        self.tokens: List[Optional[Tuple]] = [None] * n
        self.lost: List[int] = []

    # -- the interval rule and the sweep plan ------------------------------

    def _rule(self, i: int, mode: int, delay: float) -> Tuple:
        """``(delay, violation, token, lost)`` for one interval of
        application ``i`` in ``mode`` whose message took ``delay``,
        memoised in :attr:`rules`.

        A lost frame (a non-finite delay) never reached the actuator:
        the previous input holds for the whole period and stays latched,
        and nothing is equalized.  Any other delay is equalized to the
        mode's design delay when the simulator equalizes.  ``token`` is
        ``(i, delay key)``, which names the plant step's ``Gamma`` pair.
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
        token = (i, delay_key(delay))
        if token not in self.token_gammas:
            self.token_gammas[token] = self.discs[i].gammas(delay)
        rule = (delay, violation, token, lost)
        self.rules[i][mode][raw] = rule
        return rule

    def _plan(self, tokens: Tuple) -> List[Tuple]:
        """The plant-sweep plan for one tuple of delay tokens, memoised
        in :attr:`plans`: per application its index and the bound
        ``.dot`` methods of its ``Phi``, ``Gamma0`` and ``Gamma1``.

        ``ndarray.dot`` and ``@`` dispatch to the same BLAS routines for
        these shapes (the parity tests pin the bitwise identity); the
        bound method skips the operator protocol on every hot-loop
        call."""
        plan = []
        for token in tokens:
            i = token[0]
            gamma0, gamma1 = self.token_gammas[token]
            plan.append((i, self.discs[i].phi.dot, gamma0.dot, gamma1.dot))
        self.plans[tokens] = plan
        return plan

    def _sweep(self, plan: List[Tuple], us: List) -> None:
        """Advance the planned plants one interval with the scalar
        products of ``PlantStepperBank.step_all`` (in-place accumulation
        adds the same values without the temporaries)."""
        states = self.states
        held = self.held
        for i, phi_dot, g0_dot, g1_dot in plan:
            advanced = phi_dot(states[i])
            advanced += g0_dot(us[i])
            advanced += g1_dot(held[i])
            states[i] = advanced

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
            run_lockstep([self])
        else:
            self._run_lazy()
        return self.traces

    def _ticks(self) -> Iterator[None]:
        """This study's half of the event kernel's eager barrier sequence
        (disturb, grant, update, re-grant, hand over slots, resolve one
        interval, equalize), one step per sampling instant.

        Each step ends with :attr:`modes`, :attr:`tokens` and
        :attr:`lost` rewritten for the instant and then yields, so the
        caller can run the control products and plant sweeps —
        :func:`run_lockstep` does them for a whole group of studies at
        once.  Past the last instant it records the horizon samples.

        Hot-loop structure:

        * state-machine updates take a fast path while an application
          sits below threshold in ``ET_STEADY`` — ``update()`` is a
          no-op there by inspection, so the call is skipped;
        * the interval rule is memoised, and consecutive instants rarely
          change it.
        """
        sim = self.sim
        arbiter = sim.arbiter
        sample_delays = sim.network.sample_delays
        names = self.names
        frames = self.frames
        app_range = range(self.n)
        period = self.periods[0]
        states = self.states
        runtimes = self.runtimes
        appenders = self.appenders
        rules = self.rules
        modes = self.modes
        tokens = self.tokens
        lost = self.lost
        thresholds = [rt.threshold for rt in runtimes]
        fastable = [rt.tt_allowed for rt in runtimes]
        dist_state = self.dist_state
        idx_of = {name: i for i, name in enumerate(names)}
        et_steady = CommState.ET_STEADY
        tt_holding = CommState.TT_HOLDING
        waiting = CommState.WAITING
        # Disturbances flattened per step, application-major.
        dist_steps: Dict[int, List[Tuple[int, object]]] = {}
        for i, by_k in enumerate(self.dist_at):
            for k, events in by_k.items():
                dist_steps.setdefault(k, []).extend((i, e) for e in events)
        norms = [0.0] * self.n
        comms: List[CommState] = [et_steady] * self.n
        violations = 0
        for k in range(self.steps[0]):
            t = k * period
            events = dist_steps.get(k)
            if events is not None:
                for i, event in events:
                    # in place: the state may be a row of a lockstep group
                    states[i] += event.magnitude * dist_state[i]
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
            lost.clear()
            for i in app_range:
                mode = modes[i]
                raw = delays[names[i]]
                rule = rules[i][mode].get(raw)
                if rule is None:
                    rule = self._rule(i, mode, raw)
                delay, violation, tokens[i], dropped = rule
                violations += violation
                if dropped:
                    lost.append(i)
                append = appenders[i]
                append[0](t)
                append[1](norms[i])
                append[2](comms[i])
                append[3](delay)
            yield
        sim.jitter_violations += violations
        for i in app_range:
            self._finish(i)

    def _products(self) -> Callable[[], None]:
        """One instant's control products and plant sweep for this study
        alone: per application ``(-K).dot(concatenate((x, held)))``, then
        the memoised sweep plan (a lost frame's input is computed and
        swept with ``Gamma0 = 0``, but the previous input stays held)."""
        states = self.states
        held = self.held
        controls = self.controls
        modes = self.modes
        tokens = self.tokens
        lost = self.lost
        plans = self.plans
        plan_for = self._plan
        sweep = self._sweep
        app_range = range(self.n)
        concat = np.concatenate
        us: List[Optional[np.ndarray]] = [None] * self.n

        def products() -> None:
            for i in app_range:
                us[i] = controls[i][modes[i]](concat((states[i], held[i])))
            key = tuple(tokens)
            plan = plans.get(key)
            if plan is None:
                plan = plan_for(key)
            sweep(plan, us)
            for i in lost:
                us[i] = held[i]
            held[:] = us

        return products

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
            tokens = []
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
                delay, violation, token, lost = rule
                violations += violation
                delay_lists[i][trace_index] = delay
                us[i] = u
                tokens.append(token)
                if not lost:
                    fresh.append(i)
            if tokens:
                plan_key = tuple(tokens)
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


def lockstep_key(sim: "CoSimulator", horizon: float) -> Optional[Tuple]:
    """What simulators must share to advance in lockstep, or ``None`` for
    one that runs alone.

    A lockstep group shares one tick grid — a shared-period fleet on the
    batch kernel with the same period and step count — and one design:
    application by application the same dynamics bytes and ET/TT gains,
    so one ``Phi`` and one gain pair serve every study's row.  A roster
    may repeat a plant: each copy is an application of its own, with
    its own row stack.  A roster with a plant shape whose batched
    products the :func:`~repro.sim.stepper.stacked_safe` probe does not
    certify on this platform runs alone.
    """
    if sim.kernel != "auto" or sim.period is None:
        return None
    apps = sim.applications
    dynamics = [_dynamics_key(app.dynamics) for app in apps]
    shapes = {(app.dynamics.n_states, app.app.et.plant.n_inputs) for app in apps}
    if not all(stacked_safe(*shape) for shape in sorted(shapes)):
        return None
    designs = tuple(
        (key, app.app.et.gain.tobytes(), app.app.tt.gain.tobytes())
        for key, app in zip(dynamics, apps)
    )
    return (sim.period, int(np.ceil(horizon / sim.period)), designs)


def run_lockstep(kernels: Sequence[_BatchKernel]) -> None:
    """Advance eager batch kernels that share one lockstep key together,
    barrier by barrier.

    Every study keeps its own disturbances, arbitration, state machines,
    slot hand-over, ``sample_delays``, interval rule and trace appends,
    in the order of its own run (:meth:`_BatchKernel._ticks`).  Between
    barriers the products run: a lone study keeps its scalar ``.dot``
    products (:meth:`_BatchKernel._products`); a group runs each
    application's control product and plant sweep once for all its
    studies (:func:`_group_products`).
    """
    ticks = [kernel._ticks() for kernel in kernels]
    if len(kernels) == 1:
        products = kernels[0]._products()
    else:
        products = _group_products(kernels)
    for _ in range(kernels[0].steps[0]):
        for tick in ticks:
            next(tick)
        products()
    for tick in ticks:
        next(tick, None)  # the horizon samples


def _group_products(kernels: Sequence[_BatchKernel]) -> Callable[[], None]:
    """One instant's control products and plant sweeps for K >= 2
    studies, as batched 3-D matmuls per application.

    Application ``i``'s state and held input live as the rows of one
    ``(K, n + m)`` ``[x | held]`` array; each study's ``states[i]`` and
    ``held[i]`` are views of its row, written in place.  Per instant the
    control is ``(-K)[rows] @ Z[:, :, None]`` and the sweep is ``Phi @ x
    + Gamma0[rows] @ u + Gamma1[rows] @ held`` — the per-row gain stack
    memoised per tuple of the studies' modes, the ``Gamma`` stacks per
    tuple of their delay tokens.  Each slice is the scalar product of
    one study, bitwise, where :func:`~repro.sim.stepper.stacked_safe`
    holds for the shape (a lockstep key requires it).
    """
    lead = kernels[0]
    height = len(kernels)
    mode_lists = [kernel.modes for kernel in kernels]
    token_lists = [kernel.tokens for kernel in kernels]
    lost_lists = [kernel.lost for kernel in kernels]
    apps = []
    for i in range(lead.n):
        n_states = lead.states[i].shape[0]
        z = np.zeros((height, n_states + lead.held[i].shape[0]))
        for row, kernel in enumerate(kernels):
            kernel.states[i] = z[row, :n_states]
            kernel.held[i] = z[row, n_states:]
        phi = lead.discs[i].phi[None]
        apps.append(
            (
                i, z[:, :, None], z[:, :n_states, None], z[:, n_states:, None],
                phi, lead.neg_gains[i], {}, {},
            )
        )

    def gamma_stacks(tokens: Tuple) -> Tuple[np.ndarray, np.ndarray]:
        pairs = [
            kernel.token_gammas[token] for kernel, token in zip(kernels, tokens)
        ]
        return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])

    def products() -> None:
        latched: Dict[int, List[int]] = {}
        for row, lost in enumerate(lost_lists):
            for i in lost:
                latched.setdefault(i, []).append(row)
        for i, z, x, held, phi, neg_gains, gain_memo, gamma_memo in apps:
            modes = tuple([m[i] for m in mode_lists])
            gains = gain_memo.get(modes)
            if gains is None:
                gains = gain_memo[modes] = np.stack([neg_gains[m] for m in modes])
            u = gains @ z
            tokens = tuple([m[i] for m in token_lists])
            gammas = gamma_memo.get(tokens)
            if gammas is None:
                gammas = gamma_memo[tokens] = gamma_stacks(tokens)
            advanced = phi @ x
            advanced += gammas[0] @ u
            advanced += gammas[1] @ held
            x[...] = advanced
            rows = latched.get(i)
            if rows is None:
                held[...] = u
            else:
                previous = held[rows]
                held[...] = u
                held[rows] = previous

    return products
