"""Batch fast-path kernel: parity and kernel-selection tests.

The acceptance bar of the batch kernel: on *any* analytic-network fleet
— shared-period or multi-rate, any disturbance process, any seed — it
produces traces bitwise identical to the event kernel, and leaves the
network's statistics where the event kernel would.  Every other network
(frame loss wrappers, background traffic, subclassed networks) is
covered in depth by ``tests/test_cosim_batch_networks.py``.
"""

import random

import numpy as np
import pytest

from test_cosim_batch_networks import assert_kernels_agree
from test_cosim_event import make_app, multirate_fleet, shared_fleet

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
from repro.flexray import FlexRayBus, paper_bus_config
from repro.sim import (
    AnalyticNetwork,
    CoSimulator,
    FlexRayNetwork,
)

SHARED_PLANTS = [servo_rig, dc_motor_speed, throttle_by_wire]


def random_disturbance(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return OneShotDisturbance(time=rng.uniform(0.0, 2.0))
    if kind == 1:
        return PeriodicDisturbance(
            period=rng.uniform(1.5, 3.0), offset=rng.uniform(0.0, 1.0)
        )
    return SporadicDisturbance(
        min_inter_arrival=rng.uniform(1.5, 2.5),
        mean_extra_gap=rng.uniform(0.0, 1.0),
        seed=rng.randrange(1000),
    )


def random_shared_fleet(rng: random.Random):
    """2-4 applications, one shared native period, random arrivals."""
    count = rng.randint(2, 4)
    fleet = []
    for index in range(count):
        plant = rng.choice(SHARED_PLANTS)
        fleet.append(
            make_app(
                f"app{index}",
                plant(),
                slot=rng.randrange(2),
                frame_id=index + 1,
                deadline=rng.uniform(4.0, 6.0),
                disturbances=random_disturbance(rng),
            )
        )
    return fleet


def random_multirate_fleet(rng: random.Random):
    """A 2 ms current loop beside 20 ms loops with random arrivals."""
    fleet = [
        make_app(
            "current",
            motor_current_loop(),
            slot=0,
            frame_id=1,
            deadline=0.5,
            period=0.002,
        )
    ]
    for index in range(rng.randint(1, 3)):
        plant = rng.choice(SHARED_PLANTS)
        fleet.append(
            make_app(
                f"app{index}",
                plant(),
                slot=rng.randrange(2),
                frame_id=index + 2,
                deadline=rng.uniform(4.0, 6.0),
                disturbances=random_disturbance(rng),
            )
        )
    return fleet


class TestBatchParity:
    """Bitwise identity against the event kernel."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_shared_fleets_identical_across_all_kernels(self, seed):
        rng = random.Random(seed)
        horizon = rng.uniform(4.0, 8.0)
        builder = lambda: random_shared_fleet(random.Random(seed))  # noqa: E731
        sims = {
            "event": CoSimulator(builder(), AnalyticNetwork(), kernel="event"),
            "batch": CoSimulator(builder(), AnalyticNetwork()),
        }
        traces = {kernel: sim.run(horizon) for kernel, sim in sims.items()}
        assert sims["batch"].last_kernel == "batch"
        assert traces_bitwise_equal(traces["batch"], traces["event"])
        assert sims["batch"].jitter_violations == sims["event"].jitter_violations
        stats = {kernel: sim.network.statistics() for kernel, sim in sims.items()}
        assert stats["batch"] == stats["event"]
        assert stats["batch"]["delivered"] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_multirate_fleets_identical_to_event_kernel(self, seed):
        rng = random.Random(1000 + seed)
        horizon = rng.uniform(3.0, 6.0)
        builder = lambda: random_multirate_fleet(random.Random(1000 + seed))  # noqa: E731
        event_sim = CoSimulator(builder(), AnalyticNetwork(), kernel="event")
        batch_sim = CoSimulator(builder(), AnalyticNetwork())
        event = event_sim.run(horizon)
        batch = batch_sim.run(horizon)
        assert batch_sim.last_kernel == "batch"
        assert traces_bitwise_equal(batch, event)
        assert batch_sim.jitter_violations == event_sim.jitter_violations
        assert batch_sim.network.statistics() == event_sim.network.statistics()
        assert batch_sim.network.statistics()["delivered"] > 0
        assert not any(
            np.isnan(np.asarray(batch[a.name].delays)).any() for a in builder()
        )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("equalize", [True, False])
    @pytest.mark.parametrize("multirate", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_analytic_constants_identical_to_event_kernel(
        self, seed, multirate, equalize
    ):
        """Random ``tt_delay``/``et_delay`` pin the clamps the analytic
        network computes for both kernels: ``min(c, period)`` on a shared
        period, and ``(release + c) - release`` clamped to the period on
        a multi-rate fleet, including constants at and past the period.
        An ET delay past 2 ms destabilises the 2 ms loop to infinite
        norms in both kernels, hence the overflow filter."""
        rng = random.Random(3000 + seed)
        build = random_multirate_fleet if multirate else random_shared_fleet
        fleet = build(rng)
        shortest = min(a.app.period for a in fleet)
        tt_delay, et_delay = (
            rng.choice((0.0, 0.0007, 0.0013, 0.003, shortest, 0.020, 0.041))
            for _ in range(2)
        )
        network = assert_kernels_agree(
            fleet,
            lambda: AnalyticNetwork(tt_delay=tt_delay, et_delay=et_delay),
            rng.uniform(1.5, 3.0),
            equalize_delays=equalize,
        )
        assert network.delivered > 0

    def test_parity_without_delay_equalization(self):
        event = CoSimulator(
            shared_fleet(), AnalyticNetwork(), equalize_delays=False, kernel="event"
        ).run(5.0)
        batch = CoSimulator(
            shared_fleet(), AnalyticNetwork(), equalize_delays=False
        ).run(5.0)
        assert traces_bitwise_equal(batch, event)

    def test_parity_for_pure_et_baseline(self):
        event = CoSimulator(
            shared_fleet(), AnalyticNetwork(), tt_allowed=False, kernel="event"
        ).run(5.0)
        batch = CoSimulator(
            shared_fleet(), AnalyticNetwork(), tt_allowed=False
        ).run(5.0)
        assert traces_bitwise_equal(batch, event)

    def test_parity_for_multirate_reference_fleet(self):
        event = CoSimulator(multirate_fleet(), AnalyticNetwork(), kernel="event").run(6.0)
        batch = CoSimulator(multirate_fleet(), AnalyticNetwork()).run(6.0)
        assert traces_bitwise_equal(batch, event)


class TestEligibilityAndFallback:
    def test_auto_picks_batch_on_analytic_fleets(self):
        sim = CoSimulator(shared_fleet(), AnalyticNetwork())
        assert sim.kernel == "auto"
        sim.run(3.0)
        assert sim.last_kernel == "batch"

    def test_lossy_flexray_fleet_runs_the_schedule_mirror(self):
        """FlexRay + sporadic arrivals + frame loss: the batch kernel
        draws the network's own loss stream through the network's own
        methods, and the physics and counters match an explicit event
        run."""
        dist = lambda i: SporadicDisturbance(  # noqa: E731
            min_inter_arrival=2.0, mean_extra_gap=0.7, seed=i
        )
        net = lambda: FlexRayNetwork(  # noqa: E731
            bus=FlexRayBus(config=paper_bus_config()), loss_rate=0.3, loss_seed=7
        )
        network = assert_kernels_agree(shared_fleet(dist), net, 6.0)
        assert network.lost > 0

    def test_lossfree_multirate_flexray_is_now_batch_eligible(self):
        """Deterministic FlexRay joined the fast path: loss-free,
        traffic-free, stock-bus fleets select batch under the default
        kernel (the deeper parity assertions live in
        tests/test_cosim_batch_flexray.py)."""
        network = FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config()))
        sim = CoSimulator(multirate_fleet(), network)
        trace = sim.run(3.0)
        assert sim.last_kernel == "batch"
        assert len(trace.apps) == 3

    def test_subclassed_network_runs_live(self):
        """A subclass may override the delay model, and the batch kernel
        calls its own ``sample_delays``, as the event kernel does."""

        class TweakedAnalytic(AnalyticNetwork):
            pass

        network = assert_kernels_agree(shared_fleet(), TweakedAnalytic, 2.0)
        assert network.delivered > 0

    def test_unknown_kernel_rejected(self):
        for kernel in ("quantum", "legacy", "batch"):
            with pytest.raises(ValueError, match="unknown kernel") as excinfo:
                CoSimulator(shared_fleet(), AnalyticNetwork(), kernel=kernel)
            assert "['auto', 'event']" in str(excinfo.value)
        with pytest.raises(TypeError, match="legacy"):
            CoSimulator(shared_fleet(), AnalyticNetwork(), legacy=True)
