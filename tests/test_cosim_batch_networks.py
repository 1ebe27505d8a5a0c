"""Batch kernel over every network, through the network's own methods.

Both kernels drive a network through the same calls: ``on_slot_change``
and one ``sample_delays`` per barrier for a shared period,
``event_advance``/``event_submit``/``event_clamped`` per barrier for a
multi-rate fleet.  So ``kernel="auto"`` batches every fleet on every
network: stock FlexRay and CAN buses (frame loss and pre-used bus state
included), loss wrappers (nested ones too), background traffic,
subclassed networks and duck types.

The bar on each: traces, ``jitter_violations``, ``lost``, ``clamped``,
the duck types' logged call sequences and ``statistics()`` bitwise
equal to ``kernel="event"``.
"""

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.flexray import CycleFilter, FlexRayBus, FrameSpec, Message, paper_bus_config
from repro.flexray.params import FlexRayConfig
from repro.pipeline import DesignStudy, get_scenario
from repro.sim import CoSimulator, heavy_background_traffic
from repro.sim.network import (
    AnalyticNetwork,
    CanBusNetwork,
    FlexRayNetwork,
    GilbertElliottLoss,
    IIDLoss,
    LossyNetwork,
)

PLANTS = {"servo": servo_rig, "motor": dc_motor_speed, "throttle": throttle_by_wire}


@functools.lru_cache(maxsize=None)
def _designed(name, plant, period=None):
    """One controller design per (name, plant, period): designs dominate
    the cost of a random fleet, and the fleet fields vary around them."""
    plantdef = {**PLANTS, "current": motor_current_loop}[plant]()
    return make_app(name, plantdef, slot=0, frame_id=1, deadline=5.0, period=period)


def random_disturbance(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return OneShotDisturbance(time=rng.uniform(0.0, 1.5))
    if kind == 1:
        return PeriodicDisturbance(
            period=rng.uniform(1.0, 2.0), offset=rng.uniform(0.0, 1.0)
        )
    return SporadicDisturbance(
        min_inter_arrival=rng.uniform(1.0, 2.0),
        mean_extra_gap=rng.uniform(0.0, 1.0),
        seed=rng.randrange(1000),
    )


def random_shared_fleet(rng: random.Random, first_id: int = 1):
    """2-4 applications on random slots of the paper bus (granted in
    whatever order the arbiter decides), random arrivals."""
    slots = rng.sample(range(paper_bus_config().static_slots), 3)
    fleet = []
    for index in range(rng.randint(2, 4)):
        name = f"app{index}"
        fleet.append(
            dataclasses.replace(
                _designed(name, rng.choice(sorted(PLANTS))),
                slot=rng.choice(slots),
                frame=FrameSpec(frame_id=first_id + index, sender=name),
                deadline=rng.uniform(3.0, 6.0),
                disturbances=random_disturbance(rng),
            )
        )
    return fleet


def random_sporadic(rng: random.Random):
    return SporadicDisturbance(
        min_inter_arrival=rng.uniform(1.0, 2.0),
        mean_extra_gap=rng.uniform(0.0, 1.0),
        seed=rng.randrange(1000),
    )


def random_multirate_fleet(rng: random.Random):
    """A 2 ms current loop beside 1-3 loops at 10 or 20 ms, on random
    slots of the paper bus, every one disturbed sporadically."""
    slots = rng.sample(range(paper_bus_config().static_slots), 3)
    fleet = [
        dataclasses.replace(
            _designed("current", "current", 0.002),
            slot=rng.choice(slots),
            deadline=rng.uniform(0.3, 0.6),
            disturbances=random_sporadic(rng),
        )
    ]
    for index in range(rng.randint(1, 3)):
        name = f"app{index}"
        period = rng.choice((0.01, 0.02))
        fleet.append(
            dataclasses.replace(
                _designed(name, rng.choice(sorted(PLANTS)), period),
                slot=rng.choice(slots),
                frame=FrameSpec(frame_id=2 + index, sender=name),
                deadline=rng.uniform(3.0, 6.0),
                disturbances=random_sporadic(rng),
            )
        )
    return fleet


def _flexray(config=None, **kwargs):
    bus = FlexRayBus(config=config or paper_bus_config())
    return FlexRayNetwork(bus=bus, **kwargs)


#: A 25 ms cycle against 20 ms loops: some intervals see no whole cycle,
#: so frames are clamped and arrive stale in a later interval.
SLOW_BUS = FlexRayConfig(
    cycle_length=0.025,
    static_slots=10,
    static_slot_length=0.0002,
    minislot_length=0.00001,
)


def _bursty(seed):
    return GilbertElliottLoss(
        p_good_to_bad=0.2, p_bad_to_good=0.3, p_loss_bad=0.9, seed=seed
    )


class TweakedFlexRay(FlexRayNetwork):
    """A subclass: the kernels call its (inherited) methods."""


class DuckNetwork:
    """Only the eager hooks — no base class, no event interface.

    Delays are seeded draws (some lost, some past the period), and every
    call is logged so the two kernels' call sequences can be compared.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = []

    def on_slot_change(self, slot, spec):
        self.calls.append(("slot", slot, spec))

    def sample_delays(self, time, period, submissions):
        self.calls.append(("sample", time, period, list(submissions)))
        delays = {}
        for name, _, uses_tt, _ in submissions:
            draw = self.rng.random()
            if draw < 0.05:
                delays[name] = float("inf")
            elif uses_tt:
                delays[name] = 0.0007
            else:
                delays[name] = min(1.2 * period * draw, period)
        return delays


class EventDuckNetwork:
    """Only the event interface and the slot hook — no base class, no
    ``sample_delays``, no ``event_clamped``.

    Each message takes a seeded draw (some lost, some past the next
    tick, never overtaking its own application's previous message), and
    every call is logged so the two kernels' call sequences can be
    compared.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = []
        self.queued = []
        self.last = {}

    def on_slot_change(self, slot, spec):
        self.calls.append(("slot", slot, spec))

    def event_submit(self, time, window_end, submissions):
        self.calls.append(("submit", time, window_end, list(submissions)))
        for name, _, uses_tt, release in submissions:
            draw = self.rng.random()
            delay = 0.0007 if uses_tt else 0.03 * draw
            delivery = max(release + delay, self.last.get(name, 0.0))
            self.last[name] = delivery
            self.queued.append((name, release, delivery, draw < 0.05))

    def event_advance(self, time):
        self.calls.append(("advance", time))
        out = [d for d in self.queued if d[2] <= time]
        self.queued = [d for d in self.queued if d[2] > time]
        return out


#: network kind -> network factory taking a seed
NETWORKS = {
    "flexray-iid": lambda s: _flexray(loss_rate=0.2, loss_seed=s),
    "flexray-iid-slow-bus": lambda s: _flexray(SLOW_BUS, loss_rate=0.3, loss_seed=s),
    "lossy-flexray-iid": lambda s: LossyNetwork(
        inner=_flexray(), loss=IIDLoss(rate=0.2, seed=s)
    ),
    "lossy-flexray-ge": lambda s: LossyNetwork(inner=_flexray(), loss=_bursty(s)),
    "lossy-can-iid": lambda s: LossyNetwork(
        inner=CanBusNetwork(), loss=IIDLoss(rate=0.2, seed=s)
    ),
    "lossy-can-ge": lambda s: LossyNetwork(inner=CanBusNetwork(), loss=_bursty(s)),
    "nested-lossy-can": lambda s: LossyNetwork(
        inner=LossyNetwork(inner=CanBusNetwork(), loss=IIDLoss(rate=0.1, seed=s)),
        loss=_bursty(s),
    ),
    "lossy-analytic-iid": lambda s: LossyNetwork(
        inner=AnalyticNetwork(), loss=IIDLoss(rate=0.2, seed=s)
    ),
    "lossy-analytic-ge": lambda s: LossyNetwork(
        inner=AnalyticNetwork(), loss=_bursty(s)
    ),
    "can": lambda s: CanBusNetwork(),
    "flexray-traffic": lambda s: _flexray(traffic=heavy_background_traffic(count=8)),
    "subclassed-flexray": lambda s: TweakedFlexRay(
        bus=FlexRayBus(config=paper_bus_config())
    ),
    "duck": DuckNetwork,
}

#: The multi-rate matrix: every kind with the event interface, and a
#: duck type given it in place of the eager-only one.
MULTIRATE_NETWORKS = {
    **{kind: build for kind, build in NETWORKS.items() if kind != "duck"},
    "event-duck": EventDuckNetwork,
}


def _statistics(network):
    describe = getattr(network, "statistics", None)
    return None if describe is None else describe()


def assert_kernels_agree(fleet, build, horizon, **options):
    """Run ``fleet`` on ``auto`` and on ``event`` over two fresh networks
    and require bitwise-equal physics and network counters."""
    auto_net, event_net = build(), build()
    auto = CoSimulator(fleet, auto_net, **options)
    event = CoSimulator(fleet, event_net, kernel="event", **options)
    auto_trace, event_trace = auto.run(horizon), event.run(horizon)
    assert auto.last_kernel == "batch"
    assert event.last_kernel == "event"
    assert traces_bitwise_equal(auto_trace, event_trace)
    assert auto.jitter_violations == event.jitter_violations
    for counter in ("lost", "clamped", "calls"):
        assert getattr(auto_net, counter, None) == getattr(event_net, counter, None)
    assert _statistics(auto_net) == _statistics(event_net)
    return auto_net


class TestRandomSharedFleets:
    """Every network kind, random fleets, both loop options."""

    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    @given(
        seed=st.integers(0, 2**16),
        equalize=st.booleans(),
        tt_allowed=st.booleans(),
    )
    @settings(max_examples=4, deadline=None)
    def test_batch_matches_event_kernel(self, kind, seed, equalize, tt_allowed):
        build = NETWORKS[kind]
        rng = random.Random(seed)
        fleet = random_shared_fleet(rng)
        assert_kernels_agree(
            fleet,
            lambda: build(seed),
            rng.uniform(2.0, 3.5),
            equalize_delays=equalize,
            tt_allowed=tt_allowed,
        )


class TestRandomMultirateFleets:
    """Every network kind with the event interface, random multi-rate
    fleets under sporadic disturbances, both equalization options.
    Under the nested wrapper's heavy loss an unequalized 2 ms loop can
    grow past the float range of its squared norm in both kernels,
    hence the overflow filter."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("equalize", [True, False])
    @pytest.mark.parametrize("kind", sorted(MULTIRATE_NETWORKS))
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=3, deadline=None)
    def test_batch_matches_event_kernel(self, kind, equalize, seed):
        build = MULTIRATE_NETWORKS[kind]
        rng = random.Random(seed)
        fleet = random_multirate_fleet(rng)
        assert_kernels_agree(
            fleet,
            lambda: build(seed),
            rng.uniform(1.5, 2.5),
            equalize_delays=equalize,
        )

    @pytest.mark.parametrize("kernel", ["auto", "event"])
    def test_eager_only_network_is_refused(self, kernel):
        """The one kind left out of the matrix, the eager-only duck, has
        no ``event_submit``/``event_advance``: a multi-rate fleet on it
        is refused with the same error whichever kernel is asked for."""
        sim = CoSimulator(multirate_fleet(), DuckNetwork(0), kernel=kernel)
        with pytest.raises(ValueError, match="lacks \\['event_submit', 'event_advance'\\]"):
            sim.run(1.0)


class TestClampsAndLoss:
    """Frames 301-303 behind 60 high-priority 1 ms background streams
    miss whole intervals, so the clamp branch decides hundreds of them."""

    @pytest.mark.parametrize("loss_rate", [0.0, 0.3])
    def test_congested_bus_clamps_identically(self, loss_rate):
        fleet = random_shared_fleet(random.Random(11), first_id=301)
        network = assert_kernels_agree(
            fleet,
            lambda: _flexray(
                traffic=heavy_background_traffic(count=60, period=0.001),
                loss_rate=loss_rate,
                loss_seed=5,
            ),
            4.0,
        )
        assert network.clamped > 100
        assert (network.lost > 0) == (loss_rate > 0)

    def test_mirror_loses_frames_in_tt_and_et(self):
        """A lossy FlexRay run exercises loss on both segments."""
        fleet = random_shared_fleet(random.Random(3))
        network = assert_kernels_agree(
            fleet, lambda: _flexray(loss_rate=0.4, loss_seed=9), 4.0
        )
        stats = network.statistics()
        assert network.lost > 0
        assert stats["tt_deliveries"] > 0 and stats["et_deliveries"] > 0


def assert_studies_agree(scenario):
    """Run ``scenario`` on ``auto`` and on ``event``: batch must run, the
    traces must be bitwise equal, and the cosim artifacts (jitter
    violations, loss block or network statistics) equal but for the
    kernel fields.  Returns the ``auto`` artifact."""
    runs = {
        kernel: DesignStudy(scenario.derive(kernel=kernel)).run().raise_for_failure()
        for kernel in ("auto", "event")
    }
    auto, event = (runs[k].artifact("cosim") for k in ("auto", "event"))
    assert auto["kernel_used"] == "batch"
    assert event["kernel_used"] == "event"
    assert traces_bitwise_equal(
        runs["auto"].attachments.trace, runs["event"].attachments.trace
    )
    physics = lambda artifact: {  # noqa: E731
        k: v for k, v in artifact.items() if not k.startswith("kernel")
    }
    assert physics(auto) == physics(event)
    return auto


class TestMultirateMirror:
    """``multirate-cosim`` (2 ms loop beside 20 ms loops) with frame loss
    runs the batch kernel's lazy loop, bitwise equal to the event
    kernel."""

    @pytest.mark.parametrize("disturbance", ["one-shot", "sporadic"])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("loss_rate", [0.02, 0.1, 0.4])
    def test_lossy_multirate_study(self, loss_rate, seed, disturbance):
        artifact = assert_studies_agree(
            get_scenario("multirate-cosim").derive(
                loss_rate=loss_rate, seed=seed, disturbance=disturbance, horizon=3.0
            )
        )
        assert artifact["loss"]["lost"] > 0

    def test_stale_deliveries_draw_loss_too(self):
        """A 1.8 ms cycle under the 2 ms loop clamps hundreds of
        intervals; their frames arrive stale and still draw loss, as the
        event interface draws before matching a delivery."""
        config = FlexRayConfig(
            cycle_length=0.0018,
            static_slots=3,
            static_slot_length=0.0002,
            minislot_length=0.00001,
        )
        network = assert_kernels_agree(
            multirate_fleet(),
            lambda: _flexray(config, loss_rate=0.3, loss_seed=4),
            3.0,
        )
        assert network.clamped > 100
        assert network.lost > 0


#: A 6x slower bus (83 kbit/s): the 2 ms loop's 1.3 ms frames and the
#: 20 ms loops' frames collide, so intervals clamp and their frames
#: arrive stale in a later one.
SLOW_CAN_BIT_TIME = 1.2e-5

#: multi-rate CAN kind -> network builder from a seed.  Loss stays
#: mild: past about 10 % the unequalized 2 ms loop diverges.
MULTIRATE_CAN = {
    "bare": lambda s: CanBusNetwork(),
    "congested": lambda s: CanBusNetwork(bit_time=SLOW_CAN_BIT_TIME),
    "lossy-iid": lambda s: LossyNetwork(
        inner=CanBusNetwork(), loss=IIDLoss(rate=0.1, seed=s)
    ),
    "lossy-ge": lambda s: LossyNetwork(
        inner=CanBusNetwork(), loss=GilbertElliottLoss(seed=s)
    ),
}


class TestMultirateCan:
    """Multi-rate CAN fleets run the batch kernel's lazy loop, which
    drives the bus through its event interface, bitwise equal to the
    event kernel."""

    @pytest.mark.parametrize("equalize", [True, False])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("kind", sorted(MULTIRATE_CAN))
    def test_multirate_can_fleet(self, kind, seed, equalize):
        assert_kernels_agree(
            multirate_fleet(),
            lambda: MULTIRATE_CAN[kind](seed),
            3.0,
            equalize_delays=equalize,
        )

    def test_stale_deliveries_draw_loss_too(self):
        """On the slow bus every clamped interval's frame is delivered
        late (clamps exceed the frames still pending), and each stale
        delivery draws loss, as the wrapper's event interface does."""
        network = assert_kernels_agree(
            multirate_fleet(),
            lambda: LossyNetwork(
                inner=CanBusNetwork(bit_time=SLOW_CAN_BIT_TIME),
                loss=IIDLoss(rate=0.3, seed=4),
            ),
            3.0,
        )
        assert network.clamped > 100
        assert network.clamped > network.statistics()["pending"]
        assert network.lost > 0

    @pytest.mark.parametrize("loss_rate", [0.0, 0.2])
    def test_multirate_can_study(self, loss_rate):
        """``multirate-cosim`` over the registry's CAN backend runs the
        batch kernel with the event kernel's artifact, bus counters
        included."""
        artifact = assert_studies_agree(
            get_scenario("multirate-cosim").derive(
                network="can", bus=None, loss_rate=loss_rate, seed=3, horizon=3.0
            )
        )
        stats = artifact["network_stats"]
        assert stats["delivered"] > 0
        assert (stats.get("lost", 0) > 0) == (loss_rate > 0)


def _foreign_multirate_fleet():
    """``multirate_fleet`` with its 2 ms loop renamed ``sensor``."""
    fleet = multirate_fleet()
    fleet[0] = make_app("sensor", motor_current_loop(), 0, 1, 0.5, period=0.002)
    return fleet


def _warm_can(build, fleet):
    """``build()``'s bus after an overloading run of ``fleet`` left it
    busy: frames pending, one on the wire, counters running."""
    network = build()
    CoSimulator(fleet, network, kernel="event").run(0.5)
    return network


class TestWarmCanBus:
    """The batch kernel drives the real bus, so it needs no pristine
    bus: a bus a previous run left congested replays identically.  Each
    warm-up roster overloads the 25 kbit/s bus with a 2 ms loop on frame
    1, the top priority, whose name the measured roster does not know:
    its leftover frames are delivered (and behind a wrapper draw loss)
    during the measured run."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CanBusNetwork(bit_time=4e-5),
            lambda: LossyNetwork(
                inner=CanBusNetwork(bit_time=4e-5), loss=IIDLoss(rate=0.2, seed=6)
            ),
        ],
        ids=["bare", "lossy"],
    )
    @pytest.mark.parametrize(
        "warm, fleet",
        [
            (multirate_fleet, shared_fleet),
            (_foreign_multirate_fleet, multirate_fleet),
        ],
        ids=["shared-period", "multi-rate"],
    )
    def test_run_on_a_warm_bus(self, build, warm, fleet):
        assert _warm_can(build, warm()).statistics()["pending"] > 0
        assert_kernels_agree(fleet(), lambda: _warm_can(build, warm()), 3.0)


def _warm_flexray(loss_rate, prepare):
    """A paper-bus network that ``prepare(network)`` left in use."""
    network = _flexray(loss_rate=loss_rate, loss_seed=6)
    prepare(network)
    return network


def _prewarm_with(fleet):
    """An event-kernel run of another roster: its 2 ms loop on frame 1
    overloads the 5 ms bus, so frames under a name the measured roster
    does not know are left queued, ahead of the roster's own frame 1."""

    def prepare(network):
        CoSimulator(fleet(), network, kernel="event").run(0.5)

    return prepare


def _foreign_multiplexed_slot(network):
    """Slot 5, which no roster uses, owned on odd cycles only by a foreign
    frame with a message queued."""
    spec = FrameSpec(frame_id=9, sender="foreign")
    network.bus.static.assign(5, spec, CycleFilter(base=1, repetition=2))
    network.bus.submit_tt(Message(spec=spec, release_time=0.0))


def _foreign_dynamic_frame(network):
    network.bus.submit_et(
        Message(spec=FrameSpec(frame_id=9, sender="stray"), release_time=0.0)
    )


class TestWarmFlexRayBus:
    """The batch kernel drives the real bus, so it needs no
    pristine bus: a bus another roster's run left in use, a foreign
    cycle-multiplexed slot with a queued frame, and a queued foreign
    dynamic frame replay identically, with and without loss."""

    @pytest.mark.parametrize("loss_rate", [0.0, 0.3])
    @pytest.mark.parametrize(
        "warm",
        ["prewarmed", "multiplexed-slot", "dynamic-frame"],
    )
    @pytest.mark.parametrize(
        "fleet, warm_fleet",
        [
            (shared_fleet, multirate_fleet),
            (multirate_fleet, _foreign_multirate_fleet),
        ],
        ids=["shared-period", "multi-rate"],
    )
    def test_run_on_a_warm_bus(self, fleet, warm_fleet, warm, loss_rate):
        prepare = {
            "prewarmed": _prewarm_with(warm_fleet),
            "multiplexed-slot": _foreign_multiplexed_slot,
            "dynamic-frame": _foreign_dynamic_frame,
        }[warm]
        warm_bus = _warm_flexray(loss_rate, prepare).bus
        assert warm_bus.dynamic.pending() + warm_bus._tt_queued > 0
        network = assert_kernels_agree(
            fleet(), lambda: _warm_flexray(loss_rate, prepare), 2.0
        )
        assert (network.lost > 0) == (loss_rate > 0)


def _out_of_order_fleet():
    """Three loops disturbed at once, contending for slots 7, 2 and 4 in
    roster order: the bus is granted its slots out of index order."""
    plants = [servo_rig, dc_motor_speed, throttle_by_wire]
    return [
        make_app(f"app{index}", plant(), slot, index + 1, 5.0)
        for index, (plant, slot) in enumerate(zip(plants, (7, 2, 4)))
    ]


class TestSlotWalkOrder:
    def test_lossy_fleet_granted_out_of_index_order(self):
        """Loss draws follow the bus's delivery order, static slots by
        index; a lossy run on slots granted as 7, 2, 4 matches."""
        network = assert_kernels_agree(
            _out_of_order_fleet(),
            lambda: _flexray(loss_rate=0.3, loss_seed=2),
            3.0,
        )
        assert network.lost > 0
        assert network.statistics()["tt_deliveries"] > 0
