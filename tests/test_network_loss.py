"""Pluggable loss processes: legacy parity and burst models (ISSUE 9).

The frozen-contract bar for the loss refactor: composing a *loss-free*
FlexRay transport with a seeded :class:`IIDLoss` through
:class:`LossyNetwork` replays the legacy ``FlexRayNetwork(loss_rate=...)``
path **bit for bit** — same traces, same loss counters, same RNG draw
order — on the Figure 5 fleet.  Gilbert–Elliott adds bursty loss while
keeping seeded determinism.

The FlexRay and loss-wrapping backends answer shared-period intervals
through the inherited :meth:`NetworkModel.sample_delays`; frozen copies
of the bespoke overrides they used to carry guard that the default
replays them exactly, interval by interval.
"""

import random
from typing import Dict

import numpy as np
import pytest

from repro.control.disturbance import SporadicDisturbance
from repro.experiments import traces_bitwise_equal
from repro.flexray import FlexRayBus, FrameSpec, Message, paper_bus_config
from repro.sim import CoSimulator, heavy_background_traffic
from repro.sim.network import (
    FlexRayNetwork,
    GilbertElliottLoss,
    IIDLoss,
    LossyNetwork,
    NetworkModel,
    Submission,
)
from test_cosim_event import shared_fleet

RATE, SEED = 0.3, 7


def _dist(i):
    return SporadicDisturbance(min_inter_arrival=2.0, mean_extra_gap=0.7, seed=i)


def _legacy_lossy():
    return FlexRayNetwork(
        bus=FlexRayBus(config=paper_bus_config()), loss_rate=RATE, loss_seed=SEED
    )


def _composed_lossy():
    return LossyNetwork(
        inner=FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config())),
        loss=IIDLoss(rate=RATE, seed=SEED),
    )


class TestIIDLegacyParity:
    def test_event_kernel_traces_bitwise_equal(self):
        """Fig. 5 fleet: wrapper loss == built-in loss, bit for bit."""
        builtin_net, wrapper_net = _legacy_lossy(), _composed_lossy()
        builtin = CoSimulator(shared_fleet(_dist), builtin_net).run(9.0)
        composed = CoSimulator(shared_fleet(_dist), wrapper_net).run(9.0)
        assert traces_bitwise_equal(builtin, composed)
        assert builtin_net.lost > 0  # the comparison actually lost frames
        assert wrapper_net.lost == builtin_net.lost

    def test_zero_rate_consumes_no_randomness(self):
        """rate == 0 must not create or advance an RNG (the loss-free
        path's determinism contract)."""
        loss = IIDLoss(rate=0.0, seed=SEED)
        loss.reset()
        assert not any(loss.sample() for _ in range(100))
        fresh = np.random.default_rng(SEED)
        lossy = IIDLoss(rate=RATE, seed=SEED)
        lossy.reset()
        draws = [lossy.sample() for _ in range(50)]
        assert draws == [bool(fresh.random() < RATE) for _ in range(50)]

    def test_reset_replays_the_same_pattern(self):
        loss = IIDLoss(rate=RATE, seed=SEED)
        loss.reset()
        first = [loss.sample() for _ in range(200)]
        loss.reset()
        assert [loss.sample() for _ in range(200)] == first

    def test_empirical_rate_tracks_nominal(self):
        loss = IIDLoss(rate=0.25, seed=123)
        loss.reset()
        hits = sum(loss.sample() for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(0.25, abs=0.02)


class TestGilbertElliott:
    def test_seeded_determinism(self):
        def pattern(seed):
            loss = GilbertElliottLoss(seed=seed)
            loss.reset()
            return [loss.sample() for _ in range(500)]

        assert pattern(3) == pattern(3)
        assert pattern(3) != pattern(4)

    def test_losses_cluster_in_bursts(self):
        """With a lossless good state, every loss happens inside a bad
        burst — so losses are far more likely to follow a loss than to
        follow a success (the model's whole point vs IID)."""
        loss = GilbertElliottLoss(
            p_good_to_bad=0.02,
            p_bad_to_good=0.25,
            p_loss_good=0.0,
            p_loss_bad=0.8,
            seed=11,
        )
        loss.reset()
        samples = [loss.sample() for _ in range(50_000)]
        after_loss = [b for a, b in zip(samples, samples[1:]) if a]
        after_ok = [b for a, b in zip(samples, samples[1:]) if not a]
        assert sum(after_loss) / len(after_loss) > 4 * (
            sum(after_ok) / len(after_ok)
        )

    def test_cosimulates_over_flexray(self):
        """A bursty channel drops frames end-to-end and the run stays
        seed-deterministic."""

        def net():
            return LossyNetwork(
                inner=FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config())),
                loss=GilbertElliottLoss(
                    p_good_to_bad=0.2, p_bad_to_good=0.3, p_loss_bad=0.9, seed=5
                ),
            )

        first_net, second_net = net(), net()
        first = CoSimulator(shared_fleet(_dist), first_net).run(9.0)
        second = CoSimulator(shared_fleet(_dist), second_net).run(9.0)
        assert traces_bitwise_equal(first, second)
        assert first_net.lost > 0
        assert first_net.lost == second_net.lost
        assert first_net.capabilities().loss == "gilbert-elliott"


# ---------------------------------------------------------------------------
# Frozen sample_delays overrides (do not "improve": they are the reference)
# ---------------------------------------------------------------------------


def frozen_flexray_sample_delays(self, time, period, submissions):
    if self.traffic is not None:
        for message in self.traffic.messages_between(time, time + period):
            self.bus.submit_et(message)
    for sub in submissions:
        message = Message(spec=sub.spec, release_time=sub.release_time)
        self._inflight[message.sequence] = sub.name
        if sub.uses_tt:
            self.bus.submit_tt(message)
        else:
            self.bus.submit_et(message)
    delivered = self.bus.advance_to(time + period)
    delays: Dict[str, float] = {}
    for message in delivered:
        name = self._inflight.pop(message.sequence, None)
        if name is None:
            continue  # stale message from an earlier interval
        if self._loss is not None and self._loss.sample():
            # Failure injection: the frame was corrupted on the wire.
            # Report an infinite delay; the co-simulator holds the
            # previous input for the whole period and never latches
            # the lost command.
            self.lost += 1
            delays[name] = float("inf")
            continue
        if message.release_time >= time - 1e-12:
            delays[name] = min(message.delivery_time - time, period)
    for sub in submissions:
        if sub.name not in delays:
            delays[sub.name] = period
            self.clamped += 1
    return delays


def frozen_lossy_sample_delays(self, time, period, submissions):
    # Mirrors the legacy FlexRay loss path exactly: the loss draw
    # happens per delivered message *before* the staleness check,
    # and a lost message yields inf for the interval (the kernel
    # keeps the previous input latched).
    self.inner.event_submit(time, time + period, submissions)
    delays: Dict[str, float] = {}
    for delivery in self.inner.event_advance(time + period):
        if delivery.lost:
            delays[delivery.name] = float("inf")
            continue
        if self.loss.sample():
            self.lost += 1
            delays[delivery.name] = float("inf")
            continue
        if delivery.release_time >= time - 1e-12:
            delays[delivery.name] = min(delivery.delivery_time - time, period)
    for sub in submissions:
        if sub.name not in delays:
            delays[sub.name] = period
            self.event_clamped()
    return delays


def _control_frames(first_id):
    return [
        FrameSpec(frame_id=first_id + i, sender=f"app{first_id + i}")
        for i in range(3)
    ]


def drive_intervals(network, sample_delays, frames, intervals, period, seed):
    """Feed ``network`` a scripted shared-period schedule.

    Each interval may hand one static slot over (grant it to an
    application holding none, or release it), then every application
    submits one frame — over its slot while it holds one, over the
    dynamic segment otherwise.  Returns the per-interval delay dicts.
    """
    rng = random.Random(seed)
    owner = {0: None, 3: None}
    answers = []
    for k in range(intervals):
        time = k * period
        if rng.random() < 0.3:
            slot = rng.choice(sorted(owner))
            if owner[slot] is not None:
                owner[slot] = None
                network.on_slot_change(slot, None)
            else:
                idle = [f for f in frames if f not in owner.values()]
                owner[slot] = rng.choice(idle)
                network.on_slot_change(slot, owner[slot])
        held = {spec.frame_id: slot for slot, spec in owner.items() if spec}
        submissions = [
            Submission(
                name=spec.sender,
                spec=spec,
                uses_tt=spec.frame_id in held,
                slot=held.get(spec.frame_id),
                release_time=time,
            )
            for spec in frames
        ]
        answers.append(sample_delays(network, time, period, submissions))
    return answers


def _lossy_flexray():
    return FlexRayNetwork(
        bus=FlexRayBus(config=paper_bus_config()), loss_rate=0.3, loss_seed=SEED
    )


def _congested_flexray():
    return FlexRayNetwork(
        bus=FlexRayBus(config=paper_bus_config()),
        traffic=heavy_background_traffic(count=60, period=0.001),
    )


def _bursty_wrapper():
    return LossyNetwork(
        inner=FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config())),
        loss=GilbertElliottLoss(
            p_good_to_bad=0.2, p_bad_to_good=0.3, p_loss_bad=0.9, seed=5
        ),
    )


class TestInheritedSampleDelaysReplaysDeletedOverrides:
    """``NetworkModel.sample_delays`` == the frozen overrides, per interval."""

    # A 4 ms period against the 5 ms bus cycle makes frames miss their
    # interval and land in a later one, so the staleness check decides
    # hundreds of intervals.
    PERIOD = 0.004

    @pytest.mark.parametrize(
        "build, override, first_id",
        [
            (_lossy_flexray, frozen_flexray_sample_delays, 1),
            (_congested_flexray, frozen_flexray_sample_delays, 301),
            (_bursty_wrapper, frozen_lossy_sample_delays, 1),
        ],
        ids=["flexray-iid-loss", "flexray-background-traffic", "lossy-gilbert-elliott"],
    )
    def test_default_matches_frozen_override(self, build, override, first_id):
        frozen_net, default_net = build(), build()
        frozen_net._inflight = {}  # the frozen FlexRay override's message map
        frames = _control_frames(first_id)
        frozen = drive_intervals(frozen_net, override, frames, 600, self.PERIOD, seed=3)
        default = drive_intervals(
            default_net, NetworkModel.sample_delays, frames, 600, self.PERIOD, seed=3
        )
        assert frozen == default
        assert frozen_net.lost == default_net.lost
        assert frozen_net.clamped == default_net.clamped
        assert frozen_net.statistics() == default_net.statistics()
        # the schedule reaches every branch it guards
        assert frozen_net.clamped > 0
        if build is not _congested_flexray:
            assert frozen_net.lost > 0
