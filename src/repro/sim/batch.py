"""Batched analytic-network fast path for the co-simulator.

When every application in a fleet rides an
:class:`~repro.sim.network.AnalyticNetwork`, sensor-to-actuator delays
are state-independent constants per communication mode — nothing on the
bus
depends on contention.  The event kernel still pays full freight for
that fleet: queue pushes and pops per tick, network submit/advance
round-trips, :class:`~repro.sim.network.Submission` objects, and delay
equalization recomputed per sample.  This module removes all of it:

* per-application **sampling-tick grids** are precomputed up front (the
  multi-rate barrier structure is derived once by bucketing tick times
  on the same integer-nanosecond timestamps the event kernel coalesces
  on — no event queue at run time);
* per-mode **delays, jitter-violation flags and cache keys** are
  resolved to constants before the loop (the analytic network's delay,
  clamped to the period, run through the jitter-equalization rule once
  instead of once per sample);
* same-dynamics plants advance in **NumPy-batched sweeps**, stacking
  states exactly the way
  :meth:`~repro.sim.stepper.PlantStepperBank.step_all` does so the
  arithmetic stays bitwise identical, with the group/bucket plan and
  the ``Phi``/``Gamma`` transposes hoisted out of the loop.

The fast path reproduces the event kernel **bitwise**: same operation
sequence per barrier (disturbances, arbitration, state-machine updates,
controls, plant sweeps), same float products for every recorded time,
norm and delay.  The test suite asserts trace equality against the
event kernel.

Eligibility is a **capability check**: :func:`batch_capability` asks
the network's own ``capabilities()`` descriptor (the frozen
:mod:`repro.sim.network` protocol) which precomputation strategy it
opts into —

* ``"analytic"`` — delays are per-mode constants (claimed by stock
  :class:`~repro.sim.network.AnalyticNetwork` instances; subclasses
  could override the delay model, so they never inherit the claim);
* ``"flexray"`` — a stock FlexRay bus with no background
  dynamic-segment traffic, stock bus/segment classes and a cold bus
  (see :func:`repro.sim.batch_flexray.flexray_deterministic`).  The
  static segment is TDMA, so every grant and transmission instant
  follows from the slot table and is replayed by
  :class:`~repro.sim.batch_flexray._FlexRaySchedule`, which also draws
  the bus's i.i.d. frame loss in delivery order;
* ``"live"`` — any other shared-period fleet (CAN, loss wrappers,
  background traffic, subclassed or duck-typed networks): the batch
  loop drives the real network through ``on_slot_change`` and
  ``sample_delays`` exactly as the event kernel's eager mode does;
* ``None`` — a multi-rate fleet on a network without a strategy runs
  on the event kernel; :class:`~repro.sim.cosim.CoSimulator` handles
  the fallback transparently under ``kernel="auto"`` and records the
  choice in the cosim artifact's ``kernel_used``.

On top of the precomputed grids, per-sample **norms** and **control
products** vectorize across applications: fleet-wide row-stacked
``sqrt(einsum)`` norms per state dimension and one matmul per
(gain, mode) group across same-gain applications.  Both are gated by
seeded probes (:func:`_norm_stack_safe`, :func:`_rowwise_control_safe`)
that engage the stacked formulation only where this platform reproduces
the scalar arithmetic bitwise, and singleton plant buckets additionally
merge across *different* dynamics through the
:func:`~repro.sim.stepper.stacked_safe` 3-D-matmul probe shared with
:class:`~repro.sim.stepper.PlantStepperBank`.
"""

from __future__ import annotations

from math import sqrt
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

# Importing cosim here is safe: cosim never imports this module at load
# time (only lazily inside CoSimulator.run), so there is no cycle.
# Sharing _TIME_TOL matters — the disturbance-to-tick mapping must use
# the exact same ceil() product as the event kernel.
from repro.sim.cosim import _TIME_TOL
from repro.sim.network.protocol import BATCH_STRATEGIES
from repro.sim.runtime import CommState
from repro.sim.stepper import (
    GLOBAL_ZOH_CACHE,
    _dynamics_key,
    delay_key,
    stacked_safe,
)
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
    * ``"flexray"`` — a stock FlexRay schedule (no background
      dynamic-segment traffic, stock bus/segment classes, cold bus):
      every grant and transmission instant follows from the slot table
      and is replayed by a mirror that draws the bus's own i.i.d. loss
      stream.  Claimed by qualifying stock
      :class:`~repro.sim.network.FlexRayNetwork` instances.
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


def batch_eligible(sim: "CoSimulator") -> bool:
    """Whether the batch fast path can run this co-simulation.

    True iff :func:`batch_capability` names a path: every shared-period
    fleet, and multi-rate fleets whose network claims a strategy.
    """
    return batch_capability(sim) is not None


_NORM_PROBE: Dict[int, bool] = {}


def _norm_stack_safe(n_states: int) -> bool:
    """Whether row-stacked ``sqrt(einsum('ij,ij->i', X, X))`` matches the
    per-vector ``sqrt(x.dot(x))`` norms bitwise on this platform.

    A seeded random probe decides this once per state dimension per
    process.  The probe is deliberately large (2048 samples across 12
    decades of magnitude): where the two routes differ — e.g. a
    fused-multiply-add ``ddot`` against an unfused einsum reduction —
    mismatches are value-dependent but frequent (several percent of
    random inputs), so a large sample rejects such a platform with
    overwhelming probability and the scalar formulation stays in force.
    """
    cached = _NORM_PROBE.get(n_states)
    if cached is not None:
        return cached
    rng = np.random.default_rng(0x5AFE + n_states)
    count = 2048
    xs = rng.standard_normal((count, n_states))
    xs *= np.logspace(-6, 6, count)[:, None]
    stacked = np.sqrt(np.einsum("ij,ij->i", xs, xs))
    safe = all(sqrt(xs[i].dot(xs[i])) == stacked[i] for i in range(count))
    _NORM_PROBE[n_states] = safe
    return safe


def _rowwise_control_safe(neg_gain: np.ndarray) -> bool:
    """Whether ``Z @ (-K).T`` rows match the per-sample ``(-K) @ z``
    products bitwise for this exact gain matrix.

    Probed with many seeded random samples over several stack heights:
    the matrix-vector and matrix-matrix BLAS routes may fuse their
    multiply-adds differently, and such divergence is value-dependent
    but frequent under random inputs, so hundreds of trials per height
    reject an unsafe platform with overwhelming probability.
    """
    rng = np.random.default_rng(0x5AFE)
    neg_t = neg_gain.T
    width = neg_gain.shape[1]
    for m in (2, 3, 4, 5, 8, 16):
        for _ in range(32):
            zs = rng.standard_normal((m, width))
            stacked = zs.dot(neg_t)
            if not all(
                np.array_equal(neg_gain.dot(zs[i]), stacked[i])
                for i in range(m)
            ):
                return False
    return True


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
        self.apps = sim.applications
        self.horizon = horizon
        self.n = len(self.apps)
        self.periods = [sim.period_of(a) for a in self.apps]
        self.eager = len({round(p, 12) for p in self.periods}) == 1
        self.steps = [int(np.ceil(horizon / p)) for p in self.periods]
        self.traces = SimulationTrace(horizon=horizon)

    # -- setup ------------------------------------------------------------

    def _prepare(self) -> None:
        sim = self.sim
        cache = GLOBAL_ZOH_CACHE
        n = self.n
        self.names = [a.name for a in self.apps]
        self.runtimes = [sim.runtimes[name] for name in self.names]
        self.states: List[np.ndarray] = []
        self.held: List[np.ndarray] = []
        self.dist_state: List[np.ndarray] = []
        self.appenders: List[Tuple] = []
        #: per app: ``(-gain_et, -gain_tt)`` — negation distributes
        #: exactly over the matmul, so ``(-K) @ z == -(K @ z)`` bitwise.
        self.neg_gains: List[Tuple[np.ndarray, np.ndarray]] = []
        self.designs: List[Tuple[float, float]] = []  # (et, tt) mode delays
        group_ids: Dict[Tuple, int] = {}
        self.group_of: List[int] = []
        self.discs: List = []  # per group, the cached discretisation
        for i, app in enumerate(self.apps):
            name = app.name
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
                name=name, threshold=app.app.threshold, deadline=app.deadline
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
            self.neg_gains.append((-app.app.et.gain, -app.app.tt.gain))
            self.designs.append((app.app.et.plant.delay, app.app.tt.plant.delay))
        # Disturbance arrivals on the owning application's tick grid —
        # the event kernel's exact ceil() product decides the tick.
        self.dist_at: List[Dict[int, List]] = [dict() for _ in range(n)]
        for i, app in enumerate(self.apps):
            p = self.periods[i]
            for event in app.disturbances.events_until(self.horizon):
                k = max(0, int(np.ceil((event.time - _TIME_TOL) / p)))
                if k >= self.steps[i]:
                    continue
                self.dist_at[i].setdefault(k, []).append(event)
        # Probe-gated vectorization groups, engaged by the eager loops:
        # fleet-wide norms per state dimension and fleet-wide control
        # products per identical gain pair.  Applications whose group
        # fails its platform probe (or that have no partner) keep the
        # scalar formulations.
        by_dim: Dict[int, List[int]] = {}
        for i, app in enumerate(self.apps):
            by_dim.setdefault(app.dynamics.n_states, []).append(i)
        self.norm_groups: List[List[int]] = []
        grouped: set = set()
        for dim, idxs in by_dim.items():
            if len(idxs) >= 2 and _norm_stack_safe(dim):
                self.norm_groups.append(idxs)
                grouped.update(idxs)
        self.norm_solo = [i for i in range(n) if i not in grouped]
        by_gain: Dict[Tuple, List[int]] = {}
        for i, (net, ntt) in enumerate(self.neg_gains):
            key = (net.shape, net.tobytes(), ntt.shape, ntt.tobytes())
            by_gain.setdefault(key, []).append(i)
        #: ``(indices, (-K_et, -K_tt), ((-K_et).T, (-K_tt).T))`` per group.
        self.gain_groups: List[Tuple[List[int], Tuple, Tuple]] = []
        self.scalar_control = [True] * n
        for idxs in by_gain.values():
            if len(idxs) < 2:
                continue
            net, ntt = self.neg_gains[idxs[0]]
            if _rowwise_control_safe(net) and _rowwise_control_safe(ntt):
                self.gain_groups.append(((net, ntt), (net.T, ntt.T), idxs))
                for i in idxs:
                    self.scalar_control[i] = False
        self._prepare_network()

    def _prepare_network(self) -> None:
        """Resolve the network's timing ahead of the loop (analytic
        base case; the network-driven kernel overrides this to build
        its schedule mirror or bind the live network instead).

        Analytic delays per (application, mode) are constants.  The
        eager kernel sees ``min(c, period)``; the lazy kernel sees
        ``min((release + c) - release, period)`` which is release-
        dependent in floats, so lazy mode recomputes it per tick.
        """
        network = self.sim.network
        self.mode_c = (float(network.et_delay), float(network.tt_delay))
        if self.eager:
            period = self.periods[0]
            self.eager_info: List[Tuple[Tuple, Tuple]] = []
            for i in range(self.n):
                self.eager_info.append(
                    tuple(
                        self._eager_mode_info(i, self.mode_c[mode], period, mode)
                        for mode in (0, 1)
                    )
                )

    def _eager_mode_info(self, i: int, c: float, period: float, mode: int):
        """``(delay, violations, bucket_token, mats)`` for one mode."""
        delay = min(c, period)
        viol = 0
        if self.sim.equalize_delays:
            design = self.designs[i][mode]
            if delay <= design + 1e-12:
                delay = design
            else:
                viol = 1
        gid = self.group_of[i]
        token = (gid, delay_key(delay))
        return (delay, viol, token, self._token_mats(gid, delay))

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

    # -- fleet-wide products -----------------------------------------------

    def _compute_norms(self, norms: List[float]) -> None:
        """Current state norms for the whole roster, into ``norms``.

        Probe-certified groups go through one row-stacked
        ``sqrt(einsum)`` per state dimension; everything else keeps the
        per-vector ``sqrt(x.dot(x))`` the event kernel computes.  The
        values are bitwise identical either way.
        """
        states = self.states
        for idxs in self.norm_groups:
            x = np.stack([states[i] for i in idxs])
            vec = np.sqrt(np.einsum("ij,ij->i", x, x))
            for row, i in enumerate(idxs):
                norms[i] = float(vec[row])
        for i in self.norm_solo:
            x = states[i]
            norms[i] = sqrt(x.dot(x))

    def _apply_control_groups(self, modes: List[int], us: List) -> None:
        """Controls for the probe-certified same-gain groups, into
        ``us`` — one ``Z @ (-K).T`` matmul per (group, mode) partition.

        Row ``i`` of the stacked ``Z`` is a pure memory copy of the
        ``concatenate((state, held))`` vector the scalar path builds, so
        with the :func:`_rowwise_control_safe` probe holding the rows of
        the product are bitwise the scalar ``(-K) @ z`` results.
        """
        states = self.states
        held = self.held
        concat = np.concatenate
        for negs, negs_t, idxs in self.gain_groups:
            for mode in (0, 1):
                rows = [i for i in idxs if modes[i] == mode]
                if not rows:
                    continue
                if len(rows) == 1:
                    i = rows[0]
                    us[i] = negs[mode].dot(concat((states[i], held[i])))
                else:
                    z = concat(
                        (
                            np.stack([states[i] for i in rows]),
                            np.stack([held[i] for i in rows]),
                        ),
                        axis=1,
                    )
                    block = z.dot(negs_t[mode])
                    for row, i in enumerate(rows):
                        us[i] = block[row]

    # -- plant sweeps ------------------------------------------------------

    def _sweep(self, buckets, token_mats, states, us, u_prevs) -> None:
        """Advance bucketed plants — ``PlantStepperBank.step_all``'s
        arithmetic (scalar matvecs for singletons, stacked ``x @ Phi.T``
        sweeps otherwise; in-place accumulation adds the same values
        without the intermediate temporaries), with the plan hoisted."""
        for token, idxs in buckets.items():
            phi_dot, g0_dot, g1_dot, phi_t, g0t, g1t = token_mats[token]
            if len(idxs) == 1:
                i = idxs[0]
                advanced = phi_dot(states[i])
                advanced += g0_dot(us[i])
                advanced += g1_dot(u_prevs[i])
                states[i] = advanced
            else:
                x = np.stack([states[i] for i in idxs])
                u = np.stack([us[i] for i in idxs])
                u_prev = np.stack([u_prevs[i] for i in idxs])
                advanced = x.dot(phi_t)
                advanced += u.dot(g0t)
                advanced += u_prev.dot(g1t)
                for row, i in enumerate(idxs):
                    states[i] = advanced[row]

    # -- run ---------------------------------------------------------------

    def run(self) -> SimulationTrace:
        self._prepare()
        if self.eager:
            self._run_eager()
        else:
            self._run_lazy()
        self._settle_network()
        return self.traces

    def _settle_network(self) -> None:
        """Leave the network's counters where the event kernel would:
        the analytic network delivers every submitted message."""
        network = self.sim.network
        if hasattr(network, "delivered"):
            network.delivered += sum(self.steps)

    def _run_eager(self) -> None:
        """Shared-period sweep: the event kernel's eager operation
        sequence with constants hoisted; one pass per sampling instant.

        Hot-loop structure (the fig5 analytic roster spends ~40 us per
        sampling instant here, about a third of the event kernel's cost):

        * state-machine updates take a fast path while an application
          sits below threshold in ``ET_STEADY`` — ``update()`` is a
          no-op there by inspection, so the call is skipped;
        * the plant-sweep bucket plan depends only on the tuple of
          communication modes, which rarely changes between consecutive
          instants, so plans are memoized per mode tuple;
        * every matrix product goes through a pre-bound ``.dot``.
        """
        sim = self.sim
        arbiter = sim.arbiter
        n = self.n
        app_range = range(n)
        period = self.periods[0]
        steps = self.steps[0]
        states = self.states
        held = self.held
        runtimes = self.runtimes
        appenders = self.appenders
        neg_dots = [(et.dot, tt.dot) for et, tt in self.neg_gains]
        scalar_control = self.scalar_control
        gain_groups = self.gain_groups
        et_info = [info[0] for info in self.eager_info]
        tt_info = [info[1] for info in self.eager_info]
        thresholds = [rt.threshold for rt in runtimes]
        fastable = [rt.tt_allowed for rt in runtimes]
        dist_state = self.dist_state
        names = self.names
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
        modes = [0] * n
        us: List[Optional[np.ndarray]] = [None] * n
        plan_cache: Dict[Tuple[int, ...], Tuple[List, List]] = {}
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
            for i in app_range:
                comm = comms[i]
                if comm is tt_holding:
                    mode = 1
                    delay, viol, _, _ = tt_info[i]
                else:
                    mode = 0
                    delay, viol, _, _ = et_info[i]
                modes[i] = mode
                violations += viol
                if scalar_control[i]:
                    us[i] = neg_dots[i][mode](concat((states[i], held[i])))
                append = appenders[i]
                append[0](t)
                append[1](norms[i])
                append[2](comm)
                append[3](delay)
            if gain_groups:
                self._apply_control_groups(modes, us)
            plan_key = tuple(modes)
            cached = plan_cache.get(plan_key)
            if cached is None:
                cached = self._eager_plan(modes)
                plan_cache[plan_key] = cached
            plan, stacked = cached
            for phi_dot, g0_dot, g1_dot, phi_t, g0t, g1t, idxs, solo in plan:
                if solo is not None:
                    advanced = phi_dot(states[solo])
                    advanced += g0_dot(us[solo])
                    advanced += g1_dot(held[solo])
                    states[solo] = advanced
                else:
                    x = np.stack([states[j] for j in idxs])
                    u = np.stack([us[j] for j in idxs])
                    u_prev = np.stack([held[j] for j in idxs])
                    advanced = x.dot(phi_t)
                    advanced += u.dot(g0t)
                    advanced += u_prev.dot(g1t)
                    for row, j in enumerate(idxs):
                        states[j] = advanced[row]
            for phis, g0s, g1s, idxs in stacked:
                x = np.stack([states[j] for j in idxs])[:, :, None]
                u = np.stack([us[j] for j in idxs])[:, :, None]
                u_prev = np.stack([held[j] for j in idxs])[:, :, None]
                advanced = phis @ x + g0s @ u + g1s @ u_prev
                for row, j in enumerate(idxs):
                    states[j] = advanced[row, :, 0]
            for i in app_range:
                held[i] = us[i]
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

    def _eager_plan(self, modes: List[int]) -> Tuple[List[Tuple], List[Tuple]]:
        """``(plan, stacked)`` for one mode assignment.

        ``plan`` holds the same-dynamics buckets (each carrying its
        hoisted operators and either a singleton index or the stacked
        index list).  Buckets left as singletons are then merged across
        *different* dynamics by ``(n_states, n_inputs)`` shape into
        ``stacked`` entries ``(Phis, Gamma0s, Gamma1s, idxs)`` — one
        batched 3-D matmul each — wherever the
        :func:`~repro.sim.stepper.stacked_safe` probe certifies bitwise
        equality with the scalar products; the rest stay in ``plan`` as
        scalar singletons.  Bucket order is free: plants are mutually
        independent within one instant.
        """
        buckets: Dict[Tuple, List[int]] = {}
        mats_of: Dict[Tuple, Tuple] = {}
        for i in range(self.n):
            _, _, token, mats = self.eager_info[i][modes[i]]
            bucket = buckets.get(token)
            if bucket is None:
                buckets[token] = [i]
                mats_of[token] = mats
            else:
                bucket.append(i)
        plan = []
        singles: List[Tuple[int, Tuple]] = []
        for token, idxs in buckets.items():
            if len(idxs) == 1:
                singles.append((idxs[0], token))
            else:
                plan.append((*mats_of[token], idxs, None))
        scalar_singles = singles
        stacked: List[Tuple] = []
        if len(singles) >= 2:
            by_shape: Dict[Tuple[int, int], List[Tuple[int, Tuple]]] = {}
            for i, token in singles:
                disc = self.discs[token[0]]
                shape = (disc.phi.shape[0], disc.gamma_full.shape[1])
                by_shape.setdefault(shape, []).append((i, token))
            scalar_singles = []
            for shape, entries in by_shape.items():
                if len(entries) >= 2 and stacked_safe(*shape):
                    discs = [self.discs[token[0]] for _, token in entries]
                    pairs = [
                        disc.gammas(self.eager_info[i][modes[i]][0])
                        for disc, (i, _) in zip(discs, entries)
                    ]
                    stacked.append(
                        (
                            np.stack([disc.phi for disc in discs]),
                            np.stack([pair[0] for pair in pairs]),
                            np.stack([pair[1] for pair in pairs]),
                            [i for i, _ in entries],
                        )
                    )
                else:
                    scalar_singles.extend(entries)
        for i, token in scalar_singles:
            plan.append((*mats_of[token], [i], i))
        return plan, stacked

    def _run_lazy(self) -> None:
        """Multi-rate sweep: barriers bucketed on the event kernel's
        integer-nanosecond timestamps; each interval steps at the owning
        application's next tick, exactly when the event kernel does."""
        sim = self.sim
        arbiter = sim.arbiter
        equalize = sim.equalize_delays
        states = self.states
        held = self.held
        runtimes = self.runtimes
        appenders = self.appenders
        neg_dots = [(et.dot, tt.dot) for et, tt in self.neg_gains]
        designs = self.designs
        dist_at = self.dist_at
        names = self.names
        mode_c = self.mode_c
        idx_of = {name: i for i, name in enumerate(names)}
        tt_holding = CommState.TT_HOLDING
        waiting = CommState.WAITING
        concat = np.concatenate
        # Per-application tick grids (floats are the same k * period
        # products the event kernel schedules) and their barrier keys.
        times_f: List[List[float]] = []
        barriers: Dict[int, Tuple[List[Tuple[int, int]], List[int]]] = {}
        for i in range(self.n):
            grid = np.arange(self.steps[i] + 1, dtype=np.float64) * self.periods[i]
            ns = np.rint(grid * 1e9).astype(np.int64)
            times_f.append(grid.tolist())
            keys = ns.tolist()
            for k in range(self.steps[i]):
                barriers.setdefault(keys[k], ([], []))[0].append((i, k))
            barriers.setdefault(keys[self.steps[i]], ([], []))[1].append(i)
        #: per app: ``(u, delay, bucket_token, mats)`` awaiting its step.
        pending: List[Optional[Tuple]] = [None] * self.n
        lazy_tokens: Dict[Tuple, Tuple] = {}
        norms: Dict[int, float] = {}
        violations = 0
        for key in sorted(barriers):
            due, finals = barriers[key]
            # 1. Step every interval that ends at this barrier (the
            #    event kernel's _resolve: due first, then finals).
            buckets: Dict[Tuple, List[int]] = {}
            token_mats: Dict[Tuple, Tuple] = {}
            resolved: List[Tuple[int, np.ndarray]] = []
            us: Dict[int, np.ndarray] = {}
            for i in [*(i for i, _ in due), *finals]:
                record = pending[i]
                if record is None:
                    continue  # the very first tick has no interval behind it
                pending[i] = None
                u, _, token, mats = record
                us[i] = u
                resolved.append((i, u))
                bucket = buckets.get(token)
                if bucket is None:
                    buckets[token] = [i]
                    token_mats[token] = mats
                else:
                    bucket.append(i)
            if resolved:
                self._sweep(buckets, token_mats, states, us, held)
                for i, u in resolved:
                    held[i] = u
            # 2. Horizon samples for applications finishing here.
            for i in finals:
                x = states[i]
                append = appenders[i]
                append[0](self.steps[i] * self.periods[i])
                append[1](sqrt(x @ x))
                append[2](runtimes[i].state)
                append[3](0.0)
                self.traces[names[i]].response_times = runtimes[i].response_times()
            if not due:
                continue
            # 3. Disturbances, arbitration and state machines.
            for i, k in due:
                events = dist_at[i].get(k)
                if events:
                    tick = times_f[i][k]
                    for event in events:
                        states[i] = states[i] + event.magnitude * self.dist_state[i]
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
            # 4. Controls, delays (resolved now — the event kernel's
            #    min((release + c) - release, period) product), traces.
            for i, k in due:
                comm = comms[i]
                mode = 1 if comm is tt_holding else 0
                release = times_f[i][k]
                delay = min((release + mode_c[mode]) - release, self.periods[i])
                if equalize:
                    design = designs[i][mode]
                    if delay <= design + 1e-12:
                        delay = design
                    else:
                        violations += 1
                u = neg_dots[i][mode](concat((states[i], held[i])))
                append = appenders[i]
                append[0](release)
                append[1](norms[i])
                append[2](comm)
                append[3](delay)
                gid = self.group_of[i]
                token = (gid, delay_key(delay))
                mats = lazy_tokens.get(token)
                if mats is None:
                    mats = self._token_mats(gid, delay)
                    lazy_tokens[token] = mats
                pending[i] = (u, delay, token, mats)
        sim.jitter_violations += violations


__all__ = ["batch_capability", "batch_eligible"]
