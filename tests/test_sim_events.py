"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.events import EventQueue


class TestEventQueue:
    def test_fires_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda t: fired.append(("b", t)))
        queue.schedule(1.0, lambda t: fired.append(("a", t)))
        queue.schedule(3.0, lambda t: fired.append(("c", t)))
        assert queue.peek_time() == 1.0
        assert queue.run() == 3
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert queue.peek_time() is None

    def test_equal_times_fire_in_insertion_order(self):
        queue = EventQueue()
        fired = []
        for tag in "abc":
            queue.schedule(1.0, lambda t, tag=tag: fired.append(tag))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_run_drains_chained_events(self):
        queue = EventQueue()
        fired = []

        def chain(t):
            fired.append(t)
            if t < 3.0:
                queue.schedule(t + 1.0, chain)

        queue.schedule(1.0, chain)
        assert queue.run() == 3
        assert fired == [1.0, 2.0, 3.0]
        assert queue.peek_time() is None

    def test_callbacks_see_the_next_event_time(self):
        """The co-simulator opens a barrier once ``peek_time`` moves past
        the instant that is firing."""
        queue = EventQueue()
        seen = []
        for time in (1.0, 1.0, 2.0):
            queue.schedule(time, lambda t: seen.append((t, queue.peek_time())))
        queue.run()
        assert seen == [(1.0, 1.0), (1.0, 2.0), (2.0, None)]

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        errors = []

        def late(t):
            with pytest.raises(ValueError, match="past|current time") as excinfo:
                queue.schedule(2.0, lambda t: None)
            errors.append(excinfo.value)

        queue.schedule(5.0, late)
        queue.run()
        assert len(errors) == 1

    def test_same_instant_within_tolerance_is_not_past(self):
        queue = EventQueue()
        fired = []

        def now(t):
            queue.schedule(t - 5e-13, lambda t: fired.append(t))

        queue.schedule(1.0, now)
        assert queue.run() == 2
        assert fired == [1.0 - 5e-13]

    def test_event_scheduled_at_the_firing_instant_follows_queued_ties(self):
        """A callback that schedules at its own instant queues behind the
        events already waiting there, within the same ``run``."""
        queue = EventQueue()
        fired = []

        def first(t):
            fired.append("first")
            queue.schedule(t, lambda t: fired.append("added"))

        queue.schedule(1.0, first)
        queue.schedule(1.0, lambda t: fired.append("queued"))
        queue.schedule(2.0, lambda t: fired.append("later"))
        assert queue.run() == 4
        assert fired == ["first", "queued", "added", "later"]

    def test_run_on_an_empty_queue_fires_nothing(self):
        queue = EventQueue()
        assert queue.run() == 0
        assert queue.peek_time() is None
        queue.schedule(0.0, lambda t: None)  # nothing fired: time 0 is not past
        assert queue.run() == 1
