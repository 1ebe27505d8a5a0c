"""Event-driven co-simulation kernel: equivalence and multi-rate tests.

The acceptance bar of the event kernel: on shared-period scenarios it
produces traces *bitwise identical* to the fixed-step polling loop it
replaced (same operations, same order), and multi-rate fleets — which
that loop could not run — run end-to-end with per-application sampling
grids.  The polling loop lives on below as a frozen test oracle.
"""

from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.control.controller import design_switched_application
from repro.control.disturbance import (
    OneShotDisturbance,
    PeriodicDisturbance,
    SporadicDisturbance,
)
from repro.control.plants import (
    dc_motor_speed,
    motor_current_loop,
    servo_rig,
    throttle_by_wire,
)
from repro.experiments import traces_bitwise_equal
from repro.flexray import FlexRayBus, FrameSpec, paper_bus_config
from repro.flexray.params import FlexRayConfig
from repro.sim import (
    AnalyticNetwork,
    AppTrace,
    CommState,
    CoSimApplication,
    CoSimulator,
    FlexRayNetwork,
    PlantStepperBank,
    SimulationTrace,
    Submission,
    ZOHCache,
)


def make_app(name, plantdef, slot, frame_id, deadline, disturbances=None, period=None):
    period = period or plantdef.period
    app = design_switched_application(
        name=name,
        plant=plantdef.model,
        period=period,
        et_delay=period,
        tt_delay=0.0007,
        q=plantdef.q,
        r=plantdef.r,
        threshold=plantdef.threshold,
    )
    return CoSimApplication(
        app=app,
        dynamics=plantdef.model,
        disturbance_state=plantdef.disturbance,
        disturbances=disturbances or OneShotDisturbance(time=0.0),
        deadline=deadline,
        slot=slot,
        frame=FrameSpec(frame_id=frame_id, sender=name),
    )


def shared_fleet(dist=None):
    dist = dist or (lambda i: OneShotDisturbance(time=0.0))
    return [
        make_app("servo", servo_rig(), 0, 1, 5.0, dist(0)),
        make_app("motor", dc_motor_speed(), 0, 2, 6.0, dist(1)),
        make_app("throttle", throttle_by_wire(), 1, 3, 6.0, dist(2)),
    ]


def multirate_fleet():
    return [
        make_app("current", motor_current_loop(), 0, 1, 0.5, period=0.002),
        make_app("servo", servo_rig(), 0, 2, 5.0, PeriodicDisturbance(period=5.0)),
        make_app("motor", dc_motor_speed(), 1, 3, 6.0),
    ]


# ---------------------------------------------------------------------------
# Frozen fixed-step oracle (do not "improve": it is the reference)
# ---------------------------------------------------------------------------


def fixed_step_reference(sim, horizon):
    """Run ``sim`` through the fixed-step polling loop (shared period only).

    Uses the simulator's applications, network, arbiter and runtimes, and
    counts jitter violations on it, exactly as a kernel run would.
    """
    period = sim.period
    steps = int(np.ceil(horizon / period))
    bank = PlantStepperBank()
    for a in sim.applications:
        bank.register(a.name, a.dynamics, period)
    states = {
        a.name: np.zeros(a.dynamics.n_states) for a in sim.applications
    }
    held_inputs = {
        a.name: np.zeros(a.app.et.plant.n_inputs) for a in sim.applications
    }
    pending_events = {
        a.name: deque(a.disturbances.events_until(horizon))
        for a in sim.applications
    }
    traces = SimulationTrace(horizon=horizon)
    for app in sim.applications:
        traces.add(
            AppTrace(
                name=app.name,
                threshold=app.app.threshold,
                deadline=app.deadline,
            )
        )
    slot_owner: Dict[int, Optional[str]] = {a.slot: None for a in sim.applications}

    for k in range(steps):
        time = k * period
        # 1. Apply disturbances due at this instant.
        for app in sim.applications:
            events = pending_events[app.name]
            while events and events[0].time <= time + 1e-12:
                event = events.popleft()
                states[app.name] = (
                    states[app.name] + event.magnitude * app.disturbance_state
                )
                sim.runtimes[app.name].on_disturbance(time)
        # 2. Grant freed slots, then advance every state machine.
        sim.arbiter.grant_pending()
        comm_states: Dict[str, CommState] = {}
        for app in sim.applications:
            norm = float(np.linalg.norm(states[app.name]))
            comm_states[app.name] = sim.runtimes[app.name].update(time, norm)
        # A release in update() may leave a slot claimable this sample.
        granted = sim.arbiter.grant_pending()
        for name in granted:
            runtime = sim.runtimes[name]
            if runtime.state is CommState.WAITING:
                comm_states[name] = runtime.update(
                    time, float(np.linalg.norm(states[name]))
                )
        # 3. Propagate slot-ownership changes to the network.
        for app in sim.applications:
            holder = sim.arbiter.holder_of_slot(app.slot)
            if slot_owner[app.slot] != holder:
                spec = None
                if holder is not None:
                    spec = next(
                        a.frame for a in sim.applications if a.name == holder
                    )
                sim.network.on_slot_change(app.slot, spec)
                slot_owner[app.slot] = holder
        # 4. Compute control inputs and submit messages.
        submissions: List[Submission] = []
        inputs: Dict[str, np.ndarray] = {}
        for app in sim.applications:
            uses_tt = comm_states[app.name] is CommState.TT_HOLDING
            controller = app.app.tt if uses_tt else app.app.et
            u = controller.control(states[app.name], held_inputs[app.name])
            inputs[app.name] = u
            submissions.append((app.name, app.frame, uses_tt, time))
        delays = sim.network.sample_delays(time, period, submissions)
        if sim.equalize_delays:
            # Buffer actuation until the design-time offset of the
            # active mode: the controllers were designed for a fixed
            # sensor-to-actuator delay, and actuating early (the bus
            # is usually faster than the worst case) de-tunes the
            # loop.  This jitter-buffering is standard practice in
            # networked control; messages slower than the design
            # offset keep their true delay and are counted as jitter
            # violations.
            for app in sim.applications:
                if not np.isfinite(delays[app.name]):
                    continue  # lost frame: nothing to equalize
                uses_tt = comm_states[app.name] is CommState.TT_HOLDING
                design = (app.app.tt if uses_tt else app.app.et).plant.delay
                if delays[app.name] <= design + 1e-12:
                    delays[app.name] = design
                else:
                    sim.jitter_violations += 1
        # 5. Step plants with the experienced delays; record traces.
        requests: Dict[str, Tuple[np.ndarray, np.ndarray, float]] = {}
        lost_names = set()
        for app in sim.applications:
            name = app.name
            delay = delays[name]
            lost = not np.isfinite(delay)
            if lost:
                # The command never reached the actuator: the previous
                # input holds for the whole period and stays latched.
                delay = period
                lost_names.add(name)
            norm = float(np.linalg.norm(states[name]))
            traces[name].append(time, norm, comm_states[name], delay)
            requests[name] = (inputs[name], held_inputs[name], delay)
        bank.step_all(states, requests)
        for app in sim.applications:
            if app.name not in lost_names:
                held_inputs[app.name] = np.asarray(inputs[app.name], dtype=float)
    # Final norm sample at the horizon for settling checks.
    for app in sim.applications:
        name = app.name
        traces[name].append(
            steps * period,
            float(np.linalg.norm(states[name])),
            sim.runtimes[name].state,
            0.0,
        )
        traces[name].response_times = sim.runtimes[name].response_times()
    return traces


class TestSharedPeriodEquivalence:
    """Event kernel == fixed-step oracle, bit for bit."""

    def test_analytic_oneshot(self):
        event = CoSimulator(shared_fleet(), AnalyticNetwork(), kernel="event").run(6.0)
        reference = fixed_step_reference(
            CoSimulator(shared_fleet(), AnalyticNetwork()), 6.0
        )
        assert traces_bitwise_equal(event, reference)

    def test_flexray_periodic_disturbances(self):
        dist = lambda i: PeriodicDisturbance(period=2.5, offset=0.31 * i)  # noqa: E731
        net = lambda: FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config()))  # noqa: E731
        event = CoSimulator(shared_fleet(dist), net(), kernel="event").run(7.3)
        reference = fixed_step_reference(CoSimulator(shared_fleet(dist), net()), 7.3)
        assert traces_bitwise_equal(event, reference)

    def test_flexray_with_frame_loss_and_sporadic_arrivals(self):
        """Loss injection draws from one RNG; its order must match too."""
        dist = lambda i: SporadicDisturbance(  # noqa: E731
            min_inter_arrival=2.0, mean_extra_gap=0.7, seed=i
        )
        net = lambda: FlexRayNetwork(  # noqa: E731
            bus=FlexRayBus(config=paper_bus_config()), loss_rate=0.3, loss_seed=7
        )
        event_net, reference_net = net(), net()
        event = CoSimulator(shared_fleet(dist), event_net, kernel="event").run(9.0)
        reference = fixed_step_reference(
            CoSimulator(shared_fleet(dist), reference_net), 9.0
        )
        assert traces_bitwise_equal(event, reference)
        assert event_net.lost == reference_net.lost
        assert event_net.clamped == reference_net.clamped

    def test_jitter_violation_counters_match(self):
        net = lambda: FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config()))  # noqa: E731
        event_sim = CoSimulator(
            shared_fleet(), net(), equalize_delays=False, kernel="event"
        )
        reference_sim = CoSimulator(shared_fleet(), net(), equalize_delays=False)
        assert traces_bitwise_equal(
            event_sim.run(3.0), fixed_step_reference(reference_sim, 3.0)
        )
        assert event_sim.jitter_violations == reference_sim.jitter_violations

    def test_duplicate_dynamics_still_equivalent(self):
        """Same-dynamics fleets take the vectorized stepping path; the
        kernel and the oracle share it, so equality must survive."""

        def fleet():
            return [
                make_app("servo-a", servo_rig(), 0, 1, 5.0),
                make_app("servo-b", servo_rig(), 1, 2, 5.0,
                         PeriodicDisturbance(period=3.0, offset=1.0)),
            ]

        event = CoSimulator(fleet(), AnalyticNetwork(), kernel="event").run(6.0)
        reference = fixed_step_reference(CoSimulator(fleet(), AnalyticNetwork()), 6.0)
        assert traces_bitwise_equal(event, reference)


class TestMultiRate:
    def test_analytic_multirate_runs_on_native_grids(self):
        trace = CoSimulator(multirate_fleet(), AnalyticNetwork()).run(6.0)
        current, servo = trace["current"], trace["servo"]
        assert current.times[1] - current.times[0] == pytest.approx(0.002)
        assert servo.times[1] - servo.times[0] == pytest.approx(0.02)
        # ~6 s of 2 ms samples plus the final horizon sample
        assert len(current.times) == 3001
        assert len(servo.times) == 301
        assert not any(np.isnan(current.delays))
        assert trace.all_deadlines_met()

    def test_flexray_multirate_shares_one_bus(self):
        config = FlexRayConfig(
            cycle_length=0.001,
            static_slots=3,
            static_slot_length=0.0002,
            minislot_length=0.00001,
        )
        network = FlexRayNetwork(bus=FlexRayBus(config=config))
        trace = CoSimulator(multirate_fleet(), network).run(6.0)
        assert trace.all_deadlines_met()
        assert network.bus.statistics.tt_deliveries > 0
        assert network.bus.statistics.et_deliveries > 0
        assert not any(np.isnan(trace["current"].delays))

    def test_each_rate_rejects_its_disturbances(self):
        trace = CoSimulator(multirate_fleet(), AnalyticNetwork()).run(6.0)
        assert len(trace["current"].response_times) >= 1
        assert len(trace["servo"].response_times) == 2  # periodic, 5 s apart

    def test_multirate_needs_event_network_interface(self):
        class BatchOnlyNetwork:
            def sample_delays(self, time, period, submissions):
                return {name: 0.0 for name, _, _, _ in submissions}

            def on_slot_change(self, slot, spec):
                pass

        with pytest.raises(ValueError, match="event interface"):
            CoSimulator(multirate_fleet(), BatchOnlyNetwork()).run(1.0)

    def test_batch_only_network_fine_for_shared_period(self):
        class BatchOnlyNetwork:
            def sample_delays(self, time, period, submissions):
                return {
                    name: 0.0007 if uses_tt else period
                    for name, _, uses_tt, _ in submissions
                }

            def on_slot_change(self, slot, spec):
                pass

        trace = CoSimulator(shared_fleet(), BatchOnlyNetwork()).run(4.0)
        assert trace.all_deadlines_met()


class TestStepperBank:
    def test_vectorized_groups_engage_for_same_dynamics(self):
        plant = servo_rig()
        bank = PlantStepperBank(cache=ZOHCache())
        for name in ("a", "b", "c"):
            bank.register(name, plant.model, plant.period)
        states = {n: np.ones(2) for n in "abc"}
        u = np.array([0.1])
        bank.step_all(states, {n: (u, u, 0.0007) for n in "abc"})
        assert bank.vector_steps == 3 and bank.scalar_steps == 0

    def test_vectorized_matches_physics_of_scalar_path(self):
        plant = servo_rig()
        shared_cache = ZOHCache()
        batched = PlantStepperBank(cache=shared_cache)
        single = PlantStepperBank(cache=shared_cache)
        for name in ("a", "b"):
            batched.register(name, plant.model, plant.period)
        single.register("solo", plant.model, plant.period)
        x0 = np.array([0.3, -0.1])
        u = np.array([0.25])
        batch_states = {"a": x0.copy(), "b": x0.copy()}
        solo_states = {"solo": x0.copy()}
        batched.step_all(batch_states, {n: (u, 0 * u, 0.001) for n in ("a", "b")})
        single.step_all(solo_states, {"solo": (u, 0 * u, 0.001)})
        np.testing.assert_allclose(batch_states["a"], solo_states["solo"], rtol=1e-12)
        np.testing.assert_array_equal(batch_states["a"], batch_states["b"])

    def test_unregistered_step_request_raises(self):
        bank = PlantStepperBank(cache=ZOHCache())
        with pytest.raises(KeyError, match="unregistered"):
            bank.step_all({}, {"ghost": (np.zeros(1), np.zeros(1), 0.0)})

    def test_singletons_stack_across_different_dynamics(self):
        """Two plants with *different* dynamics but one (2, 1) shape:
        where the platform probe holds they advance in one batched
        matmul, and either way the states are bitwise the scalar ones."""
        from repro.sim.stepper import stacked_safe

        servo, motor = servo_rig(), dc_motor_speed()
        cache = ZOHCache()
        bank = PlantStepperBank(cache=cache)
        bank.register("servo", servo.model, servo.period)
        bank.register("motor", motor.model, motor.period)
        u = np.array([0.25])
        states = {
            "servo": np.array([0.3, -0.1]),
            "motor": np.array([0.2, 0.4]),
        }
        expected = {}
        for name, plant in (("servo", servo), ("motor", motor)):
            disc = cache.plant(plant.model, plant.period)
            gamma0, gamma1 = disc.gammas(0.0007)
            expected[name] = disc.phi @ states[name] + gamma0 @ u + gamma1 @ (0 * u)
        bank.step_all(states, {n: (u, 0 * u, 0.0007) for n in states})
        if stacked_safe(2, 1):
            assert bank.stacked_steps == 2 and bank.scalar_steps == 0
        else:
            assert bank.scalar_steps == 2 and bank.stacked_steps == 0
        for name in states:
            np.testing.assert_array_equal(states[name], expected[name])

    def test_lone_singleton_keeps_scalar_path(self):
        plant = servo_rig()
        bank = PlantStepperBank(cache=ZOHCache())
        bank.register("solo", plant.model, plant.period)
        u = np.array([0.1])
        bank.step_all({"solo": np.ones(2)}, {"solo": (u, u, 0.0007)})
        assert bank.scalar_steps == 1 and bank.stacked_steps == 0

    def test_zoh_cache_shared_across_banks(self):
        cache = ZOHCache()
        plant = servo_rig()
        first = PlantStepperBank(cache=cache)
        first.register("a", plant.model, plant.period)
        second = PlantStepperBank(cache=cache)
        second.register("b", plant.model, plant.period)
        stats = cache.stats()
        assert stats["plants"] == 1
        assert stats["hits"] >= 1  # the second bank reused the discretisation


class TestEventKernelDetails:
    def test_disturbance_between_samples_lands_on_next_tick(self):
        app = make_app(
            "servo", servo_rig(), 0, 1, 5.0,
            disturbances=OneShotDisturbance(time=0.0305),
        )
        event = CoSimulator([app], AnalyticNetwork(), kernel="event").run(3.0)
        reference = fixed_step_reference(
            CoSimulator(
                [make_app("servo", servo_rig(), 0, 1, 5.0,
                          disturbances=OneShotDisturbance(time=0.0305))],
                AnalyticNetwork(),
            ),
            3.0,
        )
        assert traces_bitwise_equal(event, reference)
        norms = event["servo"].norms
        # flat until the 0.04 s sample applies the jump
        assert norms[1] == 0.0 and norms[2] > 0.0

    def test_disturbance_after_last_tick_never_applies(self):
        app = make_app(
            "servo", servo_rig(), 0, 1, 5.0,
            disturbances=OneShotDisturbance(time=0.999),
        )
        trace = CoSimulator([app], AnalyticNetwork()).run(1.0)
        assert max(trace["servo"].norms) == 0.0

    def test_period_override_applies_to_all(self):
        apps = [make_app("servo", servo_rig(), 0, 1, 5.0)]
        trace = CoSimulator(apps, AnalyticNetwork(), period=0.01).run(1.0)
        assert trace["servo"].times[1] - trace["servo"].times[0] == pytest.approx(0.01)

    def test_period_override_rejected_for_multirate_fleet(self):
        """Resampling a mixed-rate fleet at one override period would run
        controllers designed for other rates — refuse loudly."""
        with pytest.raises(ValueError, match="multi-rate"):
            CoSimulator(multirate_fleet(), AnalyticNetwork(), period=0.02)
