"""Tests for FlexRay cycle multiplexing (slot shared by cycle filter)."""

import pytest

from repro.flexray.frame import FrameSpec, Message
from repro.flexray.bus import FlexRayBus
from repro.flexray.params import paper_bus_config
from repro.flexray.static_segment import CycleFilter, SlotAssignmentError, StaticSchedule


class TestCycleFilter:
    def test_every_cycle_default(self):
        f = CycleFilter()
        assert all(f.matches(c) for c in range(10))

    def test_base_and_repetition(self):
        f = CycleFilter(base=1, repetition=2)
        assert f.matches(1) and f.matches(3)
        assert not f.matches(0) and not f.matches(2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            CycleFilter(base=0, repetition=3)

    def test_rejects_base_out_of_range(self):
        with pytest.raises(ValueError, match="base"):
            CycleFilter(base=2, repetition=2)

    def test_overlap_detection(self):
        even = CycleFilter(base=0, repetition=2)
        odd = CycleFilter(base=1, repetition=2)
        quarters = CycleFilter(base=2, repetition=4)
        assert not even.overlaps(odd)
        assert even.overlaps(quarters)  # cycle 2 is even
        assert even.overlaps(CycleFilter())  # every-cycle overlaps all


class TestMultiplexedSchedule:
    @pytest.fixture()
    def schedule(self):
        return StaticSchedule(config=paper_bus_config())

    def test_disjoint_filters_share_a_slot(self, schedule):
        a, b = FrameSpec(frame_id=1), FrameSpec(frame_id=2)
        schedule.assign(0, a, CycleFilter(base=0, repetition=2))
        schedule.assign(0, b, CycleFilter(base=1, repetition=2))
        assert schedule.owner(0, cycle=0) is a
        assert schedule.owner(0, cycle=1) is b
        assert schedule.owner(0, cycle=2) is a

    def test_overlapping_filters_rejected(self, schedule):
        schedule.assign(0, FrameSpec(frame_id=1), CycleFilter(base=0, repetition=2))
        with pytest.raises(SlotAssignmentError, match="overlapping"):
            schedule.assign(0, FrameSpec(frame_id=2), CycleFilter(base=0, repetition=4))

    def test_release_single_frame(self, schedule):
        a, b = FrameSpec(frame_id=1), FrameSpec(frame_id=2)
        schedule.assign(0, a, CycleFilter(base=0, repetition=2))
        schedule.assign(0, b, CycleFilter(base=1, repetition=2))
        schedule.release(0, frame_id=1)
        assert schedule.owner(0, cycle=0) is None
        assert schedule.owner(0, cycle=1) is b


class TestMultiplexedBus:
    def test_two_frames_alternate_one_slot(self):
        bus = FlexRayBus(config=paper_bus_config())
        a, b = FrameSpec(frame_id=1), FrameSpec(frame_id=2)
        bus.static.assign(0, a, CycleFilter(base=0, repetition=2))
        bus.static.assign(0, b, CycleFilter(base=1, repetition=2))
        m_a = Message(spec=a, release_time=0.0)
        m_b = Message(spec=b, release_time=0.0)
        bus.submit_tt(m_a)
        bus.submit_tt(m_b)
        first = bus.run_cycle()
        second = bus.run_cycle()
        assert m_a in first and m_b not in first
        assert m_b in second
        assert m_b.delivery_time > m_a.delivery_time

    def test_only_the_cycle_owner_transmits(self):
        """Frame 2's message queued ahead of frame 1's on a slot the two
        multiplex: cycle 0 belongs to frame 1, so frame 1 transmits and
        frame 2 waits for its own cycle."""
        bus = FlexRayBus(config=paper_bus_config())
        a, b = FrameSpec(frame_id=1), FrameSpec(frame_id=2)
        bus.static.assign(0, a, CycleFilter(base=0, repetition=2))
        bus.static.assign(0, b, CycleFilter(base=1, repetition=2))
        m_b = Message(spec=b, release_time=0.0)
        m_a = Message(spec=a, release_time=0.0)
        bus.submit_tt(m_b)
        bus.submit_tt(m_a)
        assert bus.run_cycle() == [m_a]
        assert bus.run_cycle() == [m_b]
        assert m_a.delivery_time == bus.config.static_slot_window(0, 0)[1]
        assert m_b.delivery_time == bus.config.static_slot_window(1, 0)[1]
        assert bus.statistics.tt_deliveries == 2
        assert bus.statistics.unused_static_slots == 0
