"""Unit tests for the static and dynamic FlexRay segments."""

import pytest

from repro.flexray.dynamic_segment import DynamicSegment
from repro.flexray.frame import FrameSpec, Message
from repro.flexray.params import paper_bus_config
from repro.flexray.static_segment import SlotAssignmentError, StaticSchedule


@pytest.fixture()
def schedule():
    return StaticSchedule(config=paper_bus_config())


@pytest.fixture()
def dynamic():
    return DynamicSegment(config=paper_bus_config())


class TestFrameSpec:
    def test_minislots_needed_rounds_up(self):
        spec = FrameSpec(frame_id=1, payload_bits=64)
        # 64 bits * 0.1 us = 6.4 us -> 1 minislot of 10 us.
        assert spec.minislots_needed(0.00001, 1e-7) == 1
        # 256 bits * 0.1 us = 25.6 us -> 3 minislots.
        big = FrameSpec(frame_id=1, payload_bits=256)
        assert big.minislots_needed(0.00001, 1e-7) == 3

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            FrameSpec(frame_id=0)

    def test_message_latency(self):
        msg = Message(spec=FrameSpec(frame_id=1), release_time=1.0)
        assert not msg.delivered
        with pytest.raises(ValueError):
            _ = msg.latency
        msg.delivery_time = 1.25
        assert msg.latency == pytest.approx(0.25)


class TestStaticSchedule:
    def test_assign_and_lookup(self, schedule):
        spec = FrameSpec(frame_id=7)
        schedule.assign(3, spec)
        assert schedule.owner(3) is spec
        assert schedule.slot_of(7) == 3

    def test_conflicting_assignment_rejected(self, schedule):
        schedule.assign(3, FrameSpec(frame_id=7))
        with pytest.raises(SlotAssignmentError, match="already owned"):
            schedule.assign(3, FrameSpec(frame_id=8))

    def test_reassign_same_frame_is_idempotent(self, schedule):
        spec = FrameSpec(frame_id=7)
        schedule.assign(3, spec)
        schedule.assign(3, spec)
        assert schedule.slot_of(7) == 3

    def test_release_frees_slot(self, schedule):
        schedule.assign(3, FrameSpec(frame_id=7))
        schedule.release(3)
        assert schedule.owner(3) is None
        assert schedule.slot_of(7) is None


class TestDynamicSegment:
    def test_single_message_delivered_in_id_order_slot(self, dynamic):
        spec = FrameSpec(frame_id=3, payload_bits=64)
        msg = Message(spec=spec, release_time=0.0)
        dynamic.enqueue(msg)
        delivered = dynamic.run_cycle(0)
        assert delivered == [msg]
        cfg = dynamic.config
        # Two empty minislots (IDs 1, 2) then one transmission minislot.
        expected = cfg.dynamic_segment_start(0) + 3 * cfg.minislot_length
        assert msg.delivery_time == pytest.approx(expected)

    def test_lower_id_wins(self, dynamic):
        low = Message(spec=FrameSpec(frame_id=1, payload_bits=2000), release_time=0.0)
        high = Message(spec=FrameSpec(frame_id=2), release_time=0.0)
        dynamic.enqueue(high)
        dynamic.enqueue(low)
        delivered = dynamic.run_cycle(0)
        assert [m.spec.frame_id for m in delivered] == [1, 2]
        assert low.delivery_time < high.delivery_time

    def test_interference_delays_higher_ids(self, dynamic):
        cfg = dynamic.config
        blocker = Message(
            spec=FrameSpec(frame_id=1, payload_bits=4000), release_time=0.0
        )
        victim = Message(spec=FrameSpec(frame_id=2), release_time=0.0)
        dynamic.enqueue(blocker)
        dynamic.enqueue(victim)
        dynamic.run_cycle(0)
        blocker_slots = blocker.spec.minislots_needed(cfg.minislot_length, dynamic.bit_time)
        expected_victim = cfg.dynamic_segment_start(0) + (
            blocker_slots + 1
        ) * cfg.minislot_length
        assert victim.delivery_time == pytest.approx(expected_victim)

    def test_message_released_mid_segment_waits(self, dynamic):
        cfg = dynamic.config
        late = Message(
            spec=FrameSpec(frame_id=1),
            release_time=cfg.dynamic_segment_start(0) + 1e-6,
        )
        dynamic.enqueue(late)
        assert dynamic.run_cycle(0) == []
        assert dynamic.run_cycle(1) == [late]

    def test_platest_tx_defers_unfinishable_frame(self, dynamic):
        cfg = dynamic.config
        # A frame needing more minislots than remain cannot start.
        huge_bits = int((cfg.minislots + 10) * cfg.minislot_length / dynamic.bit_time)
        blocker = Message(
            spec=FrameSpec(frame_id=1, payload_bits=huge_bits), release_time=0.0
        )
        dynamic.enqueue(blocker)
        # A frame larger than the whole segment can never start; the
        # arbiter skips it every cycle (pLatestTx) and it stays queued.
        for cycle in range(3):
            assert dynamic.run_cycle(cycle) == []
        assert dynamic.pending(1) == 1

    def test_fifo_within_one_frame_id(self, dynamic):
        spec = FrameSpec(frame_id=1)
        first = Message(spec=spec, release_time=0.0)
        second = Message(spec=spec, release_time=0.0)
        dynamic.enqueue(first)
        dynamic.enqueue(second)
        delivered = dynamic.run_cycle(0)
        # One ID slot per cycle: only the head goes out.
        assert delivered == [first]
        assert dynamic.pending(1) == 1
        assert dynamic.run_cycle(1) == [second]
