"""Unit tests for the threshold-switching runtime state machine."""

import pytest

from repro.sim.arbiter import TTSlotArbiter
from repro.sim.runtime import CommState, SwitchingRuntime


def make_runtime(name="A", deadline=5.0, slot=0, arbiter=None):
    arbiter = arbiter or TTSlotArbiter()
    runtime = SwitchingRuntime(
        name=name, threshold=0.1, arbiter=arbiter, deadline=deadline
    )
    arbiter.register(runtime.client(), slot)
    return runtime, arbiter


class TestStateMachine:
    def test_starts_steady(self):
        runtime, _ = make_runtime()
        assert runtime.state is CommState.ET_STEADY
        assert not runtime.uses_tt()

    def test_disturbance_grants_free_slot_immediately(self):
        runtime, _ = make_runtime()
        runtime.on_disturbance(0.0)
        state = runtime.update(0.0, norm=1.0)
        assert state is CommState.TT_HOLDING
        assert runtime.uses_tt()

    def test_settling_releases_slot(self):
        runtime, arbiter = make_runtime()
        runtime.on_disturbance(0.0)
        runtime.update(0.0, norm=1.0)
        runtime.update(0.5, norm=0.05)
        assert runtime.state is CommState.ET_STEADY
        assert arbiter.holder_of_slot(0) is None
        assert runtime.response_times() == [0.5]

    def test_waits_when_slot_busy(self):
        arbiter = TTSlotArbiter()
        first, _ = make_runtime("A", deadline=2.0, arbiter=arbiter)
        second, _ = make_runtime("B", deadline=6.0, arbiter=arbiter)
        first.on_disturbance(0.0)
        first.update(0.0, norm=1.0)
        second.on_disturbance(0.0)
        assert second.update(0.0, norm=1.0) is CommState.WAITING

    def test_waiter_promoted_after_release(self):
        arbiter = TTSlotArbiter()
        first, _ = make_runtime("A", deadline=2.0, arbiter=arbiter)
        second, _ = make_runtime("B", deadline=6.0, arbiter=arbiter)
        first.on_disturbance(0.0)
        first.update(0.0, norm=1.0)
        second.on_disturbance(0.0)
        second.update(0.0, norm=1.0)
        first.update(0.4, norm=0.01)  # A settles, releases
        arbiter.grant_pending()
        assert second.update(0.42, norm=0.8) is CommState.TT_HOLDING
        record = second.records[-1]
        assert record.granted_at - record.arrival == pytest.approx(0.42)

    def test_settles_while_waiting(self):
        arbiter = TTSlotArbiter()
        first, _ = make_runtime("A", deadline=2.0, arbiter=arbiter)
        second, _ = make_runtime("B", deadline=6.0, arbiter=arbiter)
        first.on_disturbance(0.0)
        first.update(0.0, norm=1.0)
        second.on_disturbance(0.0)
        second.update(0.0, norm=0.5)
        # B's ET controller rejects the disturbance on its own.
        assert second.update(1.0, norm=0.05) is CommState.ET_STEADY
        assert second.response_times() == [1.0]
        # The queued request must be gone: releasing A must not grant B.
        first.update(1.2, norm=0.01)
        assert arbiter.grant_pending() == []

    def test_norm_triggered_episode_without_explicit_disturbance(self):
        runtime, _ = make_runtime()
        runtime.update(1.0, norm=0.5)
        assert runtime.state is CommState.TT_HOLDING
        assert runtime.records[-1].arrival == 1.0

    def test_multiple_episodes(self):
        runtime, _ = make_runtime()
        for start in (0.0, 10.0):
            runtime.on_disturbance(start)
            runtime.update(start, norm=1.0)
            runtime.update(start + 0.4, norm=0.02)
        assert runtime.response_times() == [pytest.approx(0.4)] * 2
