"""FlexRay batch strategy: parity, statistics, classification.

The acceptance bar of the FlexRay fast path: on *any* static-slot
FlexRay fleet — shared-period or multi-rate, any slot assignment, any
disturbance process, any seed — the batch kernel's traces are bitwise
identical to the event kernel's, and so are the bus statistics, since
both kernels drive the same bus through its tuple-level cycle core.
Frame loss and pre-used buses ride the ``"flexray"`` strategy;
background dynamic-segment traffic and subclassed networks or bus parts
run the live path, driving the real network.
"""

import random

import pytest

from test_cosim_batch_networks import assert_kernels_agree, assert_studies_agree
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
from repro.flexray import FlexRayBus, FrameSpec, Message, paper_bus_config
from repro.flexray.params import FlexRayConfig
from repro.pipeline import DesignStudy, get_scenario
from repro.sim import (
    BackgroundTraffic,
    CoSimulator,
    FlexRayNetwork,
    TrafficStream,
    batch_capability,
)

SHARED_PLANTS = [servo_rig, dc_motor_speed, throttle_by_wire]


def fresh_network(config=None):
    return FlexRayNetwork(bus=FlexRayBus(config=config or paper_bus_config()))


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
    """2-4 applications, random slot assignments, random arrivals."""
    count = rng.randint(2, 4)
    slots = rng.sample(range(paper_bus_config().static_slots), 3)
    return [
        make_app(
            f"app{index}",
            rng.choice(SHARED_PLANTS)(),
            slot=rng.choice(slots),
            frame_id=index + 1,
            deadline=rng.uniform(4.0, 6.0),
            disturbances=random_disturbance(rng),
        )
        for index in range(count)
    ]


def random_multirate_fleet(rng: random.Random):
    """A 2 ms current loop beside 20 ms loops, mixed periods and slots."""
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
        fleet.append(
            make_app(
                f"app{index}",
                rng.choice(SHARED_PLANTS)(),
                slot=rng.randrange(3),
                frame_id=index + 2,
                deadline=rng.uniform(4.0, 6.0),
                disturbances=random_disturbance(rng),
            )
        )
    return fleet


MULTIRATE_CONFIG = dict(
    cycle_length=0.001,
    static_slots=3,
    static_slot_length=0.0002,
    minislot_length=0.00001,
)


class TestFlexRayBatchParity:
    """Bitwise identity against the event kernel."""

    def test_shared_fleet_identical_across_all_kernels(self):
        sims = {
            "event": CoSimulator(shared_fleet(), fresh_network(), kernel="event"),
            "batch": CoSimulator(shared_fleet(), fresh_network()),
        }
        traces = {kernel: sim.run(6.0) for kernel, sim in sims.items()}
        assert sims["batch"].last_kernel == "batch"
        assert traces_bitwise_equal(traces["batch"], traces["event"])
        assert sims["batch"].jitter_violations == sims["event"].jitter_violations

    def test_multirate_fleet_identical_to_event_kernel(self):
        config = FlexRayConfig(**MULTIRATE_CONFIG)
        batch_net, event_net = fresh_network(config), fresh_network(config)
        batch_sim = CoSimulator(multirate_fleet(), batch_net)
        event_sim = CoSimulator(multirate_fleet(), event_net, kernel="event")
        batch = batch_sim.run(6.0)
        event = event_sim.run(6.0)
        assert batch_sim.last_kernel == "batch"
        assert traces_bitwise_equal(batch, event)
        assert batch_sim.jitter_violations == event_sim.jitter_violations

    def test_parity_without_delay_equalization(self):
        """Raw bus delays (jitter violations counted, not equalized)."""
        sims = {
            "event": CoSimulator(
                shared_fleet(), fresh_network(), equalize_delays=False, kernel="event"
            ),
            "batch": CoSimulator(
                shared_fleet(), fresh_network(), equalize_delays=False
            ),
        }
        traces = {kernel: sim.run(5.0) for kernel, sim in sims.items()}
        assert sims["batch"].last_kernel == "batch"
        assert traces_bitwise_equal(traces["batch"], traces["event"])
        assert (
            sims["batch"].jitter_violations == sims["event"].jitter_violations
        )

    def test_parity_for_pure_et_baseline(self):
        """tt_allowed=False: everything rides the dynamic segment."""
        batch = CoSimulator(
            shared_fleet(), fresh_network(), tt_allowed=False
        ).run(5.0)
        event = CoSimulator(
            shared_fleet(), fresh_network(), tt_allowed=False, kernel="event"
        ).run(5.0)
        assert traces_bitwise_equal(batch, event)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_shared_fleets_identical_across_all_kernels(self, seed):
        rng = random.Random(2000 + seed)
        horizon = rng.uniform(4.0, 8.0)
        builder = lambda: random_shared_fleet(random.Random(2000 + seed))  # noqa: E731
        sims = {
            "event": CoSimulator(builder(), fresh_network(), kernel="event"),
            "batch": CoSimulator(builder(), fresh_network()),
        }
        traces = {kernel: sim.run(horizon) for kernel, sim in sims.items()}
        assert sims["batch"].last_kernel == "batch"
        assert traces_bitwise_equal(traces["batch"], traces["event"])
        assert sims["batch"].jitter_violations == sims["event"].jitter_violations

    @pytest.mark.parametrize("seed", range(6))
    def test_random_multirate_fleets_identical_to_event_kernel(self, seed):
        rng = random.Random(3000 + seed)
        horizon = rng.uniform(3.0, 6.0)
        builder = lambda: random_multirate_fleet(random.Random(3000 + seed))  # noqa: E731
        config = FlexRayConfig(**MULTIRATE_CONFIG)
        batch_sim = CoSimulator(builder(), fresh_network(config))
        event_sim = CoSimulator(builder(), fresh_network(config), kernel="event")
        batch = batch_sim.run(horizon)
        event = event_sim.run(horizon)
        assert batch_sim.last_kernel == "batch"
        assert traces_bitwise_equal(batch, event)
        assert batch_sim.jitter_violations == event_sim.jitter_violations


class TestStatisticsFidelity:
    """Both kernels leave the bus with the same statistics."""

    def test_shared_fleet_bus_statistics_match_event_kernel(self):
        batch_net, event_net = fresh_network(), fresh_network()
        CoSimulator(shared_fleet(), batch_net).run(6.0)
        CoSimulator(shared_fleet(), event_net, kernel="event").run(6.0)
        assert batch_net.bus.statistics == event_net.bus.statistics
        assert batch_net.clamped == event_net.clamped
        assert batch_net.bus.current_cycle == event_net.bus.current_cycle
        assert batch_net.bus.statistics.tt_deliveries > 0
        assert batch_net.bus.statistics.et_deliveries > 0

    def test_multirate_fleet_bus_statistics_match_event_kernel(self):
        config = FlexRayConfig(**MULTIRATE_CONFIG)
        batch_net, event_net = fresh_network(config), fresh_network(config)
        CoSimulator(multirate_fleet(), batch_net).run(6.0)
        CoSimulator(multirate_fleet(), event_net, kernel="event").run(6.0)
        assert batch_net.bus.statistics == event_net.bus.statistics
        assert batch_net.clamped == event_net.clamped
        assert batch_net.bus.current_cycle == event_net.bus.current_cycle

    @pytest.mark.parametrize("seed", range(3))
    def test_random_fleet_statistics_match(self, seed):
        builder = lambda: random_shared_fleet(random.Random(4000 + seed))  # noqa: E731
        batch_net, event_net = fresh_network(), fresh_network()
        CoSimulator(builder(), batch_net).run(5.0)
        CoSimulator(builder(), event_net, kernel="event").run(5.0)
        assert batch_net.bus.statistics == event_net.bus.statistics
        assert batch_net.clamped == event_net.clamped


class TestEligibility:
    """What claims the ``"flexray"`` strategy, and what runs live."""

    def test_lossfree_stock_fleet_is_flexray_capable(self):
        sim = CoSimulator(shared_fleet(), fresh_network())
        assert batch_capability(sim) == "flexray"
        sim.run(2.0)
        assert sim.last_kernel == "batch"

    def test_frame_loss_claims_flexray(self):
        """The source draws the network's own i.i.d. loss stream."""
        net = lambda: FlexRayNetwork(  # noqa: E731
            bus=FlexRayBus(config=paper_bus_config()), loss_rate=0.3, loss_seed=7
        )
        assert net().capabilities().batch_strategy == "flexray"
        network = assert_kernels_agree(shared_fleet(), net, 2.0, "flexray")
        assert network.lost > 0

    def test_background_traffic_runs_live(self):
        """Dynamic-segment contention is not precomputable: the live
        path drives the real bus and its traffic generator."""
        traffic = BackgroundTraffic(
            streams=[
                TrafficStream(
                    spec=FrameSpec(frame_id=60, sender="infotainment"),
                    period=0.01,
                )
            ]
        )
        net = lambda: FlexRayNetwork(  # noqa: E731
            bus=FlexRayBus(config=paper_bus_config()), traffic=traffic
        )
        assert net().capabilities().batch_strategy is None
        assert_kernels_agree(shared_fleet(), net, 2.0, "live")

    def test_subclassed_network_runs_live(self):
        class TweakedFlexRay(FlexRayNetwork):
            pass

        assert_kernels_agree(
            shared_fleet(),
            lambda: TweakedFlexRay(bus=FlexRayBus(config=paper_bus_config())),
            2.0,
            "live",
        )

    def test_subclassed_bus_falls_back(self):
        """A subclassed bus could override the cycle walk the source
        drives, so its network claims nothing and runs live."""

        class TweakedBus(FlexRayBus):
            pass

        net = lambda: FlexRayNetwork(  # noqa: E731
            bus=TweakedBus(config=paper_bus_config())
        )
        assert net().capabilities().batch_strategy is None
        assert_kernels_agree(shared_fleet(), net, 2.0, "live")

    def test_prewarmed_bus_claims_flexray(self):
        """The source drives the real bus, so a bus clock already past
        the run's first intervals is no obstacle."""

        def net():
            network = fresh_network()
            network.bus.advance_to(0.02)
            return network

        assert net().capabilities().batch_strategy == "flexray"
        assert_kernels_agree(shared_fleet(), net, 2.0, "flexray")

    def test_preassigned_slot_claims_flexray(self):
        """A hand-granted slot stays owned until the arbiter hands it
        over, on both kernels."""

        def net():
            network = fresh_network()
            network.bus.grant_slot(0, FrameSpec(frame_id=9, sender="static"))
            return network

        assert net().capabilities().batch_strategy == "flexray"
        assert_kernels_agree(shared_fleet(), net, 2.0, "flexray")

    def test_queued_dynamic_message_claims_flexray(self):
        def net():
            network = fresh_network()
            network.bus.submit_et(
                Message(spec=FrameSpec(frame_id=9, sender="stray"), release_time=0.0)
            )
            return network

        assert net().capabilities().batch_strategy == "flexray"
        assert_kernels_agree(shared_fleet(), net, 2.0, "flexray")


class TestPipelineIntegration:
    """kernel="auto" selects batch end-to-end, recorded in kernel_used."""

    def test_fig5_cosim_scenario_selects_batch(self):
        result = DesignStudy(get_scenario("fig5-cosim")).run()
        artifact = result.artifact("cosim")
        assert artifact["kernel_used"] == "batch"
        assert artifact["network"] == "flexray"
        assert artifact["loss"]["rate"] == 0.0

    def test_multirate_cosim_scenario_selects_batch(self):
        result = DesignStudy(get_scenario("multirate-cosim")).run()
        assert result.artifact("cosim")["kernel_used"] == "batch"

    def test_lossy_scenario_records_batch(self):
        scenario = get_scenario("fig5-cosim").derive(loss_rate=0.05)
        artifact = assert_studies_agree(scenario)
        assert artifact["loss"]["lost"] > 0
