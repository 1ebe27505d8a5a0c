"""CAN bus backend: arbitration semantics and the RTA soundness bound.

The promotion contract of ISSUE 9's CAN backend: the live transport
implements exactly the message model that
:mod:`repro.baselines.can_rta` analyses — non-preemptive fixed-priority
arbitration, lowest identifier first, wire time ``C = (overhead +
payload) * bit_time`` — so on randomized periodic fleets every
*simulated* wait is bounded by the *analytic* worst-case response time
whenever the RTA declares the set schedulable.
"""

import numpy as np
import pytest

from repro.baselines.can_rta import (
    CAN_FRAME_OVERHEAD_BITS,
    frame_transmission_time,
    message_from_frame,
    worst_case_response_time,
)
from repro.flexray.frame import FrameSpec
from repro.pipeline import DesignStudy, get_scenario
from repro.sim.network import CanBusNetwork
from test_cosim_batch_networks import assert_studies_agree

BIT_TIME = 2e-6


def _submission(frame_id, release, payload_bits=64, name=None):
    spec = FrameSpec(
        frame_id=frame_id, payload_bits=payload_bits, sender=name or f"f{frame_id}"
    )
    return (spec.sender, spec, False, release)


def _drive(net, submissions, horizon, step=0.001):
    """Feed releases barrier by barrier; return deliveries in order."""
    pending = sorted(submissions, key=lambda s: s[3])
    deliveries = []
    time = 0.0
    while time < horizon:
        window_end = time + step
        batch = [s for s in pending if s[3] < window_end]
        pending = [s for s in pending if s[3] >= window_end]
        net.event_submit(time, window_end, batch)
        deliveries.extend(net.event_advance(window_end))
        time = window_end
    deliveries.extend(net.event_advance(horizon + 1.0))
    return deliveries


class TestArbitration:
    def test_wire_time_matches_rta_charge(self):
        net = CanBusNetwork(bit_time=BIT_TIME)
        assert net.wire_time(64) == frame_transmission_time(64, BIT_TIME)
        assert net.wire_time(0) == CAN_FRAME_OVERHEAD_BITS * BIT_TIME

    def test_idle_bus_delivers_after_one_wire_time(self):
        net = CanBusNetwork(bit_time=BIT_TIME)
        [(_, _, delivery, lost)] = _drive(net, [_submission(1, 0.0)], horizon=0.01)
        assert delivery == pytest.approx(net.wire_time(64))
        assert not lost

    def test_lowest_identifier_wins_contention(self):
        """Three frames released together transmit in identifier order,
        back to back."""
        net = CanBusNetwork(bit_time=BIT_TIME)
        subs = [_submission(fid, 0.0) for fid in (3, 1, 2)]
        deliveries = _drive(net, subs, horizon=0.01)
        assert [d[0] for d in deliveries] == ["f1", "f2", "f3"]
        wire = net.wire_time(64)
        for rank, delivery in enumerate(deliveries, start=1):
            assert delivery[2] == pytest.approx(rank * wire)

    def test_non_preemptive_blocking(self):
        """A high-priority frame arriving mid-transmission waits for the
        low-priority frame on the wire — the RTA's blocking term B."""
        net = CanBusNetwork(bit_time=BIT_TIME)
        wire = net.wire_time(64)
        low = _submission(9, 0.0)
        high = _submission(1, 0.4 * wire)
        deliveries = _drive(net, [low, high], horizon=0.01, step=0.1 * wire)
        assert [d[0] for d in deliveries] == ["f9", "f1"]
        assert deliveries[0][2] == pytest.approx(wire)
        assert deliveries[1][2] == pytest.approx(2 * wire)

    def test_fifo_within_one_identifier(self):
        net = CanBusNetwork(bit_time=BIT_TIME)
        wire = net.wire_time(64)
        subs = [
            _submission(1, 0.0, name="first"),
            _submission(1, 0.0, name="second"),
        ]
        deliveries = _drive(net, subs, horizon=0.01)
        assert [d[0] for d in deliveries] == ["first", "second"]
        assert deliveries[1][2] == pytest.approx(2 * wire)

    def test_busy_time_accounts_every_transmission(self):
        net = CanBusNetwork(bit_time=BIT_TIME)
        subs = [_submission(fid, 0.0) for fid in (1, 2, 3)]
        _drive(net, subs, horizon=0.01)
        assert net.busy_time == pytest.approx(3 * net.wire_time(64))
        assert net.statistics()["delivered"] == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CanBusNetwork(bit_time=0.0)
        with pytest.raises(ValueError):
            CanBusNetwork(overhead_bits=-1)


class TestRtaSoundness:
    """Simulated waits never exceed the analytic worst case."""

    PERIODS = (0.005, 0.01, 0.02, 0.05)
    PAYLOADS = (16, 32, 64)

    def _random_fleet(self, rng):
        n = int(rng.integers(3, 9))
        frame_ids = rng.choice(np.arange(1, 30), size=n, replace=False)
        specs = []
        for fid in sorted(int(f) for f in frame_ids):
            specs.append(
                (
                    FrameSpec(
                        frame_id=fid,
                        payload_bits=int(rng.choice(self.PAYLOADS)),
                        sender=f"frame-{fid}",
                    ),
                    float(rng.choice(self.PERIODS)),
                )
            )
        return specs

    @pytest.mark.parametrize("seed", range(8))
    def test_simulated_wait_below_rta_bound(self, seed):
        rng = np.random.default_rng(1000 + seed)
        fleet = self._random_fleet(rng)
        messages = [
            message_from_frame(spec, period, bit_time=BIT_TIME)
            for spec, period in fleet
        ]
        horizon = 4 * max(period for _, period in fleet)
        # Synchronous release at t=0 (the critical instant) plus strict
        # periodic re-releases: the RTA's exact arrival model.
        submissions = []
        for spec, period in fleet:
            k = 0
            while k * period < horizon:
                submissions.append((spec.sender, spec, False, k * period))
                k += 1
        net = CanBusNetwork(bit_time=BIT_TIME)
        deliveries = _drive(net, submissions, horizon, step=min(self.PERIODS))
        worst_seen = {}
        for name, release, delivery, _ in deliveries:
            worst_seen[name] = max(worst_seen.get(name, 0.0), delivery - release)
        assert set(worst_seen) == {spec.sender for spec, _ in fleet}
        checked = 0
        for message in messages:
            bound = worst_case_response_time(
                message, [m for m in messages if m is not message]
            )
            if not bound.schedulable:
                continue
            checked += 1
            assert worst_seen[message.name] <= bound.response_time + 1e-9, (
                f"{message.name}: simulated wait {worst_seen[message.name]:.6f}s "
                f"exceeds the RTA bound {bound.response_time:.6f}s"
            )
        assert checked > 0  # at least part of every random set is analysable


class TestCanCosimScenario:
    def test_can_cosim_study_runs_end_to_end(self):
        scenario = get_scenario("can-cosim").derive(
            apps=("servo-rig", "throttle-by-wire"), wait_step=16, horizon=6.0
        )
        # The batch loop drives the bus through the network's own
        # methods, bitwise equal to the event kernel (traces, jitter
        # violations, bus statistics).
        cosim = assert_studies_agree(scenario)
        assert cosim["network"] == "can"
        assert cosim["kernel_used"] == "batch"
        assert cosim["all_deadlines_met"]
        stats = cosim["network_stats"]
        assert stats["delivered"] > 0
        assert stats["busy_time"] > 0.0

    def test_can_cosim_is_seed_deterministic(self):
        scenario = get_scenario("can-cosim").derive(
            apps=("servo-rig",), wait_step=16, horizon=4.0
        )
        first = DesignStudy(scenario).run().artifact("cosim")
        second = DesignStudy(scenario).run().artifact("cosim")
        assert first["qoc"] == second["qoc"]
