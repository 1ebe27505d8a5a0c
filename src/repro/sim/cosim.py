"""Multi-application closed-loop co-simulation (TrueTime substitute).

Simulates several control applications sharing a FlexRay bus under the
paper's dynamic resource allocation: plants evolve in discrete time with
the sensor-to-actuator delay *actually experienced* on the bus each
sample, the threshold-switching runtimes request/release shared TT slots
through the non-preemptive deadline-priority arbiter, and everything is
recorded in :class:`~repro.sim.trace.SimulationTrace` (the data behind
the paper's Figure 5).

Two simulation kernels are provided (``kernel=`` selects between them):

* the **event-driven kernel** (``kernel="event"``) is the reference.
  Every application's sampling ticks and every disturbance arrival are
  events of their own on a :class:`~repro.sim.events.EventQueue`;
  coinciding ticks meet at one barrier, where slots are arbitrated
  and messages transmitted.  Applications may use *different*
  sampling periods — a 2 ms current loop can share the bus with 20 ms
  chassis loops — and each application's state machine, plant step
  and trace samples advance at its own rate.
* the **batch kernel** (``kernel="auto"``, the default) is the fast
  path.  It skips per-event dispatch entirely: sampling-tick grids are
  precomputed and the interval rule and plant operators are memoised.
  It has one eager loop (shared period) and one lazy loop
  (multi-rate), and both drive the network through the same calls, in
  the same order, as the event kernel (see :mod:`repro.sim.batch`), so
  it runs every fleet on every network.  Traces are bitwise identical
  to the event kernel's, which the test suite asserts.

:func:`run_together` advances several simulators that share one tick
grid and design (:func:`lockstep_groups`) in lockstep on the batch
kernel: a sweep's pool worker runs its chunk's compatible studies this
way, each study's results bitwise those of its own :meth:`CoSimulator.run`.

Network backends live in the :mod:`repro.sim.network` package — a
:class:`~repro.sim.network.NetworkModel` protocol on plain-tuple
records, a decorator registry (``analytic``, ``flexray``, ``can``
bundled), composable loss processes and a conformance test kit.

Multi-rate fleets need the incremental *event interface*
(:meth:`event_submit` / :meth:`event_advance`), which all bundled
models implement; third-party network objects that only provide
:meth:`~repro.sim.network.NetworkModel.sample_delays` still run
shared-period fleets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.controller import SwitchedApplication
from repro.control.disturbance import DisturbanceEvent, DisturbanceProcess
from repro.control.lti import ContinuousStateSpace
from repro.flexray.frame import FrameSpec
from repro.sim.arbiter import TTSlotArbiter
from repro.sim.events import EventQueue
from repro.sim.network import NetworkModel, Submission
from repro.sim.stepper import PlantStepperBank
from repro.sim.runtime import CommState, SwitchingRuntime
from repro.sim.trace import AppTrace, SimulationTrace
from repro.utils.validation import check_positive

#: Tolerance for grouping sampling instants of different applications
#: onto one barrier (float noise in ``k * period`` products).
_TIME_TOL = 1e-12


@dataclass(frozen=True)
class CoSimApplication:
    """Everything the co-simulator needs to run one application.

    Attributes
    ----------
    app:
        Designed switched application (both mode controllers).
    dynamics:
        Continuous plant dynamics (for per-delay discretisation).
    disturbance_state:
        Plant-state jump applied when a disturbance arrives.
    disturbances:
        Arrival process of disturbances.
    deadline:
        Response-time requirement.
    slot:
        Index of the TT slot this application contends for.
    frame:
        Bus frame of this application's control messages.
    """

    app: SwitchedApplication
    dynamics: ContinuousStateSpace
    disturbance_state: np.ndarray
    disturbances: DisturbanceProcess
    deadline: float
    slot: int
    frame: FrameSpec

    @property
    def name(self) -> str:
        return self.app.name


@dataclass
class _InFlight:
    """A sampling interval awaiting its delay."""

    release: float
    u: np.ndarray
    uses_tt: bool
    trace_index: int
    delivery: Optional[float] = None
    lost: bool = False


class _EventKernel:
    """Event-driven co-simulation over an :class:`EventQueue`.

    Every application's sampling ticks and horizon sample, and every
    disturbance arrival, are events of their own.  Ticks that coincide
    are coalesced into one barrier so that slot arbitration still
    happens fleet-wide at sampling instants, exactly as in the paper:
    the barrier opens once no other event shares its instant.  Two
    instants belong to the same barrier iff they round to the same
    **integer-nanosecond timestamp**: per-application tick times are
    independent ``k * period`` float products whose nominally
    coincident values drift apart by a few ulps on long horizons, and
    ulps stay far below half a nanosecond for any realistic horizon, so
    the rounding coalesces them without an epsilon comparison.

    Delay resolution runs in one of two modes, as the network contract
    requires:

    * **eager** (all applications share one period): the network is
      advanced one full interval at transmission time through
      :meth:`~repro.sim.network.NetworkModel.sample_delays` — the same
      calls in the same order as the fixed-step reference loop in
      ``tests/test_cosim_event.py``, whose traces it must match bitwise.
    * **lazy** (multi-rate fleets): messages are submitted when
      released, the bus advances incrementally at each barrier, and each
      application's interval is resolved at its *next* tick, clamped to
      its own period.  Requires the network's event interface.
    """

    def __init__(self, sim: "CoSimulator", horizon: float):
        self.sim = sim
        self.apps = sim.applications
        self.by_name = {a.name: a for a in self.apps}
        self.network = sim.network
        self.index = {a.name: i for i, a in enumerate(self.apps)}
        self.periods = {a.name: sim.period_of(a) for a in self.apps}
        self.eager = sim.period is not None
        self.horizon = horizon
        self.steps = {
            name: int(np.ceil(horizon / p)) for name, p in self.periods.items()
        }
        self.queue = EventQueue()
        self.bank = PlantStepperBank()
        self.states: Dict[str, np.ndarray] = {}
        self.held: Dict[str, np.ndarray] = {}
        self.pending: Dict[str, Deque[DisturbanceEvent]] = {}
        self.tick_index: Dict[str, int] = {}
        self.inflight: Dict[str, _InFlight] = {}
        self.traces = SimulationTrace(horizon=horizon)
        self.slot_owner: Dict[int, Optional[str]] = {}
        self._due: List[str] = []
        self._final_due: List[str] = []
        self._tick_cbs: Dict[str, Callable[[float], None]] = {}
        self._comm_states: Dict[str, CommState] = {}

    # -- helpers ----------------------------------------------------------

    def _tick_time(self, name: str) -> float:
        return self.tick_index[name] * self.periods[name]

    def _norm(self, name: str) -> float:
        return float(np.linalg.norm(self.states[name]))

    def _maybe_flush(self, t: float) -> None:
        """Open the barrier once every event at this instant has fired.

        Events share a barrier iff their times round to the same integer
        nanosecond (coincident instants are exact-float-equal in the
        shared-period case — the first comparison — and within ulps of
        each other on multi-rate grids, far below 0.5 ns)."""
        nxt = self.queue.peek_time()
        if nxt is not None:
            if nxt == t:
                return
            if round(nxt * 1e9) == round(t * 1e9):
                return
        if self._due or self._final_due:
            self._sample_phase(t)

    # -- setup ------------------------------------------------------------

    def run(self) -> SimulationTrace:
        for app in self.apps:
            name = app.name
            self.bank.register(name, app.dynamics, self.periods[name])
            self.states[name] = np.zeros(app.dynamics.n_states)
            self.held[name] = np.zeros(app.app.et.plant.n_inputs)
            self.pending[name] = deque()
            self.tick_index[name] = 0
            self.slot_owner.setdefault(app.slot, None)
            self.traces.add(
                AppTrace(
                    name=name,
                    threshold=app.app.threshold,
                    deadline=app.deadline,
                )
            )
        # Disturbance arrivals: applied at the application's first
        # sampling instant at or after the arrival (the paper's
        # sample-aligned model); arrivals past the last tick never apply.
        for app in self.apps:
            name = app.name
            p = self.periods[name]
            for event in app.disturbances.events_until(self.horizon):
                k = max(0, int(np.ceil((event.time - _TIME_TOL) / p)))
                if k >= self.steps[name]:
                    continue
                self.queue.schedule(k * p, partial(self._on_disturbance, name, event))
        for app in self.apps:
            cb = partial(self._on_tick, app.name)
            self._tick_cbs[app.name] = cb
            self.queue.schedule(0.0, cb)
        self.queue.run()
        return self.traces

    # -- event callbacks (pre-bound once, reused every tick) ---------------

    def _on_tick(self, name: str, t: float) -> None:
        self._due.append(name)
        self._maybe_flush(t)

    def _on_final(self, name: str, t: float) -> None:
        self._final_due.append(name)
        self._maybe_flush(t)

    def _on_disturbance(self, name: str, event: DisturbanceEvent, t: float) -> None:
        self.pending[name].append(event)
        self._maybe_flush(t)

    # -- barrier phases ---------------------------------------------------

    def _sample_phase(self, t: float) -> None:
        """Resolve finished intervals, apply disturbances, advance the
        per-application state machines, then grant and transmit."""
        sim = self.sim
        due = sorted(self._due, key=self.index.__getitem__)
        self._due = []
        finals = sorted(self._final_due, key=self.index.__getitem__)
        self._final_due = []
        if not self.eager:
            self._resolve(t, due + finals)
        for name in finals:
            runtime = sim.runtimes[name]
            self.traces[name].append(
                self.steps[name] * self.periods[name],
                self._norm(name),
                runtime.state,
                0.0,
            )
            self.traces[name].response_times = runtime.response_times()
        if not due:
            if not self.eager and self.queue.peek_time() is not None:
                # Keep background traffic flowing between barriers even
                # when no control loop sampled at this one.
                self.network.event_submit(t, self.queue.peek_time(), [])
            return
        for name in due:
            app = self.by_name[name]
            events = self.pending[name]
            if events:
                tick = self._tick_time(name)
                while events:
                    event = events.popleft()
                    self.states[name] = (
                        self.states[name] + event.magnitude * app.disturbance_state
                    )
                    sim.runtimes[name].on_disturbance(tick)
        sim.arbiter.grant_pending()
        self._comm_states = comm_states = {}
        runtimes = sim.runtimes
        for name in due:
            comm_states[name] = runtimes[name].update(
                self._tick_time(name), self._norm(name)
            )
        self._grant_phase()
        self._transmit_phase(t, due)

    def _grant_phase(self) -> None:
        """Hand freed slots over; a grant may flip a *due* application
        from WAITING to TT for this very sample (sample-aligned switch)."""
        sim = self.sim
        granted = sim.arbiter.grant_pending()
        for name in granted:
            runtime = sim.runtimes.get(name)
            if (
                name in self._comm_states
                and runtime is not None
                and runtime.state is CommState.WAITING
            ):
                self._comm_states[name] = runtime.update(
                    self._tick_time(name), self._norm(name)
                )

    def _transmit_phase(self, t: float, due: List[str]) -> None:
        """Propagate slot ownership, compute control inputs, put the
        messages on the bus, and schedule the next sampling ticks."""
        sim = self.sim
        for app in self.apps:
            holder = sim.arbiter.holder_of_slot(app.slot)
            if self.slot_owner[app.slot] != holder:
                spec = None
                if holder is not None:
                    spec = next(a.frame for a in self.apps if a.name == holder)
                self.network.on_slot_change(app.slot, spec)
                self.slot_owner[app.slot] = holder
        submissions: List[Submission] = []
        for name in due:
            app = self.by_name[name]
            comm_state = self._comm_states[name]
            uses_tt = comm_state is CommState.TT_HOLDING
            controller = app.app.tt if uses_tt else app.app.et
            u = controller.control(self.states[name], self.held[name])
            release = self._tick_time(name)
            trace = self.traces[name]
            trace.append(
                release,
                self._norm(name),
                comm_state,
                float("nan"),  # patched when the interval resolves
            )
            self.inflight[name] = _InFlight(
                release=release,
                u=np.asarray(u, dtype=float),
                uses_tt=uses_tt,
                trace_index=len(trace.delays) - 1,
            )
            submissions.append((name, app.frame, uses_tt, release))
        if self.eager:
            delays = self.network.sample_delays(t, self.sim.period, submissions)
            self._step(due, [delays[name] for name in due])
        for name in due:
            self.tick_index[name] += 1
            k = self.tick_index[name]
            if k < self.steps[name]:
                self.queue.schedule(k * self.periods[name], self._tick_cbs[name])
            elif k == self.steps[name]:
                self.queue.schedule(
                    k * self.periods[name], partial(self._on_final, name)
                )
        if not self.eager:
            window_end = self.queue.peek_time()
            if window_end is None:
                window_end = t
            self.network.event_submit(t, window_end, submissions)

    # -- delay resolution -------------------------------------------------

    def _resolve(self, t: float, names: List[str]) -> None:
        """Lazy resolution: advance the bus to ``t`` and settle every
        interval that ends at this barrier, each clamped to its period."""
        for name, release, delivery, lost in self.network.event_advance(t):
            record = self.inflight.get(name)
            if record is None:
                continue
            # Exact compare: both values are the same tick_index * period
            # product, so a live interval matches bitwise and a stale one
            # differs by at least a full period.
            if release == record.release:
                record.delivery = delivery
                record.lost = lost
            # else: stale delivery from an interval already clamped
        settled = []
        delays = []
        for name in names:
            record = self.inflight.get(name)
            if record is None:
                continue  # the very first tick has no interval behind it
            if record.lost:
                delay = float("inf")
            elif record.delivery is None:
                # missed the whole interval
                delay = self.periods[name]
                clamped = getattr(self.network, "event_clamped", None)
                if clamped is not None:
                    clamped()
            else:
                delay = min(record.delivery - record.release, self.periods[name])
            settled.append(name)
            delays.append(delay)
        self._step(settled, delays)

    def _step(self, names: List[str], delays: List[float]) -> None:
        """Apply the interval rule to each named application's in-flight
        interval and advance its plant over it.

        A lost frame (a non-finite delay) never reached the actuator:
        the previous input holds for the whole period and stays latched,
        and nothing is equalized.  Any other delay is equalized to the
        mode's design delay when the simulator equalizes; a later one
        keeps its true value and counts as a jitter violation.
        """
        sim = self.sim
        requests: Dict[str, Tuple[np.ndarray, np.ndarray, float]] = {}
        latched: List[Tuple[str, np.ndarray]] = []
        for name, delay in zip(names, delays):
            record = self.inflight.pop(name)
            if not np.isfinite(delay):
                delay = self.periods[name]
            else:
                latched.append((name, record.u))
                if sim.equalize_delays:
                    app = self.by_name[name]
                    design = (
                        app.app.tt if record.uses_tt else app.app.et
                    ).plant.delay
                    if delay <= design + 1e-12:
                        delay = design
                    else:
                        sim.jitter_violations += 1
            self.traces[name].delays[record.trace_index] = delay
            requests[name] = (record.u, self.held[name], delay)
        self.bank.step_all(self.states, requests)
        for name, u in latched:
            self.held[name] = u


#: Kernel names accepted by :class:`CoSimulator`.
KERNELS = ("auto", "event")


class CoSimulator:
    """Co-simulation of applications sharing TT slots.

    ``kernel=`` selects the simulation kernel:

    * ``"auto"`` (default) — the batch fast path, for every fleet;
    * ``"event"`` — the event-driven reference kernel (disturbance
      arrivals and per-application ticks are queue events).

    Both run fleets with *mixed* sampling periods.  Disturbances are
    applied at the owning application's first sampling instant at or
    after their arrival time in both kernels, and traces are bitwise
    identical across them.  After :meth:`run`, :attr:`last_kernel` names
    the kernel that executed (``"batch"`` or ``"event"``).
    """

    def __init__(
        self,
        applications: Sequence[CoSimApplication],
        network: NetworkModel,
        equalize_delays: bool = True,
        tt_allowed: bool = True,
        kernel: str = "auto",
    ):
        if not applications:
            raise ValueError("need at least one application")
        if kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {list(KERNELS)}"
            )
        names = [a.name for a in applications]
        if len(set(names)) != len(names):
            raise ValueError(f"application names must be unique, got {names}")
        periods = {round(a.app.period, 12) for a in applications}
        #: the fleet's shared period, or ``None`` for a multi-rate fleet,
        #: whose applications each keep their own
        self.period: Optional[float] = (
            applications[0].app.period if len(periods) == 1 else None
        )
        self.kernel = kernel
        self.last_kernel: Optional[str] = None
        self.applications = list(applications)
        self.network = network
        self.equalize_delays = equalize_delays
        self.jitter_violations = 0
        self.arbiter = TTSlotArbiter()
        self.runtimes: Dict[str, SwitchingRuntime] = {}
        for app in self.applications:
            check_positive(app.app.period, f"period of {app.name!r}")
            runtime = SwitchingRuntime(
                name=app.name,
                threshold=app.app.threshold,
                arbiter=self.arbiter,
                deadline=app.deadline,
                tt_allowed=tt_allowed,
            )
            self.arbiter.register(runtime.client(), app.slot)
            self.runtimes[app.name] = runtime

    def period_of(self, app: CoSimApplication) -> float:
        """Effective sampling period of one application."""
        return self.period if self.period is not None else app.app.period

    def run(self, horizon: float) -> SimulationTrace:
        """Simulate up to ``horizon`` seconds and return the trace."""
        check_positive(horizon, "horizon")
        if self.period is None:
            missing = [
                m
                for m in ("event_submit", "event_advance")
                if not hasattr(self.network, m)
            ]
            if missing:
                raise ValueError(
                    "multi-rate co-simulation needs a network model with the "
                    f"event interface; {type(self.network).__name__} lacks "
                    f"{missing} (shared-period fleets only need sample_delays)"
                )
        if self.kernel == "event":
            self.last_kernel = "event"
            return _EventKernel(self, horizon).run()
        # Imported lazily: repro.sim.batch imports from this module.
        from repro.sim.batch import _BatchKernel

        self.last_kernel = "batch"
        return _BatchKernel(self, horizon).run()


def lockstep_groups(
    simulators: Sequence[CoSimulator], horizons: Sequence[float]
) -> List[List[int]]:
    """Partition runs into groups that :func:`run_together` advances in
    lockstep: indices sharing one :func:`~repro.sim.batch.lockstep_key`,
    in order of their first member.  A run without a key is a group of
    its own."""
    from repro.sim.batch import lockstep_key

    groups: List[List[int]] = []
    by_key: Dict[Tuple, List[int]] = {}
    for index, (simulator, horizon) in enumerate(zip(simulators, horizons)):
        key = lockstep_key(simulator, horizon)
        group = None if key is None else by_key.get(key)
        if group is None:
            group = []
            groups.append(group)
            if key is not None:
                by_key[key] = group
        group.append(index)
    return groups


def run_together(
    simulators: Sequence[CoSimulator], horizons: Sequence[float]
) -> List[SimulationTrace]:
    """Run simulators that share one tick grid and design in lockstep.

    One simulator is :meth:`CoSimulator.run`.  Two or more must form one
    :func:`lockstep_groups` group; each study's trace, network counters
    and ``jitter_violations`` are bitwise those of its own run, while
    each application's control product and plant sweep run once per
    instant for the whole group (see :func:`repro.sim.batch.run_lockstep`).
    """
    if len(simulators) != len(horizons):
        raise ValueError("need one horizon per simulator")
    if len(simulators) == 1:
        return [simulators[0].run(horizons[0])]
    from repro.sim.batch import _BatchKernel, lockstep_key, run_lockstep

    for horizon in horizons:
        check_positive(horizon, "horizon")
    if len({id(sim.network) for sim in simulators}) < len(simulators):
        # interleaved calls on one network would not be either run's own
        raise ValueError("simulators run together need one network each")
    keys = {lockstep_key(sim, horizon) for sim, horizon in zip(simulators, horizons)}
    if len(keys) != 1 or None in keys:
        raise ValueError(
            "simulators run together only on one shared tick grid and design "
            "(see lockstep_groups)"
        )
    kernels = [_BatchKernel(sim, horizon) for sim, horizon in zip(simulators, horizons)]
    run_lockstep(kernels)
    for simulator in simulators:
        simulator.last_kernel = "batch"
    return [kernel.traces for kernel in kernels]


__all__ = [
    "CoSimApplication",
    "CoSimulator",
    "KERNELS",
    "lockstep_groups",
    "run_together",
]
