"""Unit tests for the cycle-stepped FlexRay bus and the ET timing analysis."""

import pytest

from repro.flexray.bus import FlexRayBus
from repro.flexray.frame import FrameSpec, Message
from repro.flexray.params import paper_bus_config
from repro.flexray.timing import (
    all_et_delay_bounds,
    minislots_consumed_before,
    worst_case_et_delay,
)


@pytest.fixture()
def bus():
    return FlexRayBus(config=paper_bus_config())


class TestFlexRayBus:
    def test_clock_advances_by_cycles(self, bus):
        assert bus.time == 0.0
        bus.run_cycle()
        assert bus.time == pytest.approx(0.005)
        bus.advance_to(0.020)
        assert bus.current_cycle == 4

    def test_tt_requires_slot_ownership(self, bus):
        msg = Message(spec=FrameSpec(frame_id=5), release_time=0.0)
        with pytest.raises(ValueError, match="owns no static slot"):
            bus.submit_tt(msg)

    def test_tt_delivery_is_deterministic(self, bus):
        spec = FrameSpec(frame_id=5)
        bus.grant_slot(2, spec)
        msg = Message(spec=spec, release_time=0.0)
        bus.submit_tt(msg)
        delivered = bus.run_cycle()
        assert msg in delivered
        _, end = bus.config.static_slot_window(0, 2)
        assert msg.delivery_time == pytest.approx(end)
        assert bus.statistics.tt_deliveries == 1

    def test_unused_slot_counted(self, bus):
        bus.grant_slot(0, FrameSpec(frame_id=5))
        bus.run_cycle()  # no data queued
        assert bus.statistics.unused_static_slots == 1
        assert bus.statistics.static_utilization == 0.0

    def test_late_tt_message_rides_next_cycle(self, bus):
        spec = FrameSpec(frame_id=5)
        bus.grant_slot(0, spec)
        start, _ = bus.config.static_slot_window(0, 0)
        msg = Message(spec=spec, release_time=start + 1e-6)
        bus.submit_tt(msg)
        first = bus.run_cycle()
        assert msg not in first
        second = bus.run_cycle()
        assert msg in second
        _, end = bus.config.static_slot_window(1, 0)
        assert msg.delivery_time == pytest.approx(end)

    def test_et_delivery(self, bus):
        msg = Message(spec=FrameSpec(frame_id=1), release_time=0.0)
        bus.submit_et(msg)
        delivered = bus.run_cycle()
        assert msg in delivered
        assert bus.statistics.et_deliveries == 1
        assert msg.delivery_time > bus.config.static_segment_length

    def test_release_slot_drops_queue(self, bus):
        spec = FrameSpec(frame_id=5)
        bus.grant_slot(0, spec)
        bus.submit_tt(Message(spec=spec, release_time=0.0))
        bus.release_slot(0)
        delivered = bus.run_cycle()
        assert delivered == []

    def test_slot_handover_between_apps(self, bus):
        """The paper's dynamic allocation: one slot, two owners over time."""
        first, second = FrameSpec(frame_id=5), FrameSpec(frame_id=6)
        bus.grant_slot(0, first)
        m1 = Message(spec=first, release_time=0.0)
        bus.submit_tt(m1)
        bus.run_cycle()
        bus.release_slot(0)
        bus.grant_slot(0, second)
        m2 = Message(spec=second, release_time=bus.time)
        bus.submit_tt(m2)
        bus.run_cycle()
        assert m1.delivered and m2.delivered
        assert m2.delivery_time > m1.delivery_time

    def test_static_slots_deliver_in_index_order(self, bus):
        """Slots granted out of index order still deliver (and so draw
        loss) in index order, and the name-keyed tuple core the
        co-simulation kernels drive delivers exactly what the message
        API does."""
        frames = [FrameSpec(frame_id=i + 1, sender=f"f{i}") for i in range(4)]
        core = FlexRayBus(config=bus.config)
        for slot, index in ((7, 0), (2, 1), (4, 2)):
            bus.grant_slot(slot, frames[index])
            core.grant_slot(slot, frames[index])
        for cycle in range(3):
            release = cycle * bus.config.cycle_length
            for index, frame in enumerate(frames):
                uses_tt = index < 3 and cycle != 1
                message = Message(spec=frame, release_time=release)
                if uses_tt:
                    bus.submit_tt(message)
                    core._enqueue_tt(frame.frame_id, release, frame.sender)
                else:
                    bus.submit_et(message)
                    core.dynamic._enqueue(
                        frame.frame_id,
                        release,
                        frame.sender,
                        core.dynamic.minislots_of(frame),
                    )
        horizon = 3 * bus.config.cycle_length
        expected = [
            (m.spec.sender, m.release_time, m.delivery_time)
            for m in bus.advance_to(horizon)
        ]
        assert core._advance(horizon) == expected
        assert core.statistics == bus.statistics
        assert len(expected) == 12
        assert [name for name, _, _ in expected[:3]] == ["f1", "f2", "f0"]


class TestEtTimingAnalysis:
    def test_minislots_before_counts_empty_and_busy(self):
        cfg = paper_bus_config()
        frame = FrameSpec(frame_id=5, payload_bits=64)
        interferers = [FrameSpec(frame_id=2, payload_bits=256)]
        # IDs 1, 3, 4 empty (3 minislots) + ID 2 busy (3 minislots).
        assert minislots_consumed_before(frame, interferers, cfg, 1e-7) == 6

    def test_duplicate_interferer_ids_rejected(self):
        cfg = paper_bus_config()
        frame = FrameSpec(frame_id=5)
        with pytest.raises(ValueError, match="distinct"):
            minislots_consumed_before(
                frame, [FrameSpec(frame_id=2), FrameSpec(frame_id=2)], cfg, 1e-7
            )

    def test_bound_dominates_simulation(self):
        """The analytical worst case must cover the simulated latency."""
        cfg = paper_bus_config()
        frames = [FrameSpec(frame_id=i, payload_bits=128) for i in range(1, 7)]
        bounds = {b.frame_id: b.worst_latency for b in all_et_delay_bounds(frames, cfg)}
        bus = FlexRayBus(config=cfg)
        messages = [Message(spec=f, release_time=0.0) for f in frames]
        for message in messages:
            bus.submit_et(message)
        bus.advance_to(0.1)
        for message in messages:
            assert message.delivered
            assert message.latency <= bounds[message.spec.frame_id] + 1e-12

    def test_higher_id_has_larger_bound(self):
        cfg = paper_bus_config()
        frames = [FrameSpec(frame_id=i, payload_bits=128) for i in range(1, 5)]
        bounds = all_et_delay_bounds(frames, cfg)
        latencies = [b.worst_latency for b in bounds]
        assert latencies == sorted(latencies)

    def test_oversized_frame_rejected(self):
        cfg = paper_bus_config()
        huge_bits = int(cfg.minislots * cfg.minislot_length / 1e-7) + 1000
        with pytest.raises(ValueError, match="minislots"):
            worst_case_et_delay(FrameSpec(frame_id=1, payload_bits=huge_bits), [], cfg)

    def test_single_frame_delivered_first_cycle(self):
        cfg = paper_bus_config()
        bound = worst_case_et_delay(FrameSpec(frame_id=1, payload_bits=64), [], cfg)
        assert bound.cycles_needed == 1
        assert bound.worst_latency <= cfg.cycle_length + cfg.dynamic_segment_length
