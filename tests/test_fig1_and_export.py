"""Tests for the Figure 1 demonstration and trace CSV export."""

import pytest

from repro.experiments.fig1 import run_fig1
from repro.sim.runtime import CommState


@pytest.fixture(scope="module")
def fig1_result():
    return run_fig1()


class TestFig1:
    def test_every_scheme_transition_occurs(self, fig1_result):
        kinds = {(old, new) for _t, _a, old, new in fig1_result.transitions}
        assert ("et-steady", "tt-holding") in kinds  # free slot granted
        assert ("et-steady", "waiting") in kinds  # busy slot: wait in ET
        assert ("tt-holding", "et-steady") in kinds  # dwell done: release

    def test_waiting_observed(self, fig1_result):
        assert fig1_result.saw_waiting()

    def test_non_preemption(self, fig1_result):
        """The motor's disturbance arrives while the servo holds the slot
        but never evicts it: the servo's TT interval is contiguous."""
        assert len(fig1_result.trace["servo"].tt_intervals()) == 1

    def test_all_deadlines_met(self, fig1_result):
        assert fig1_result.trace.all_deadlines_met()

    def test_report_renders(self, fig1_result):
        text = fig1_result.report()
        assert "tt-holding" in text and "waiting" in text


class TestCsvExport:
    def test_app_trace_csv_shape(self, fig1_result):
        csv = fig1_result.trace["servo"].to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "time,norm,state,delay"
        assert len(lines) == len(fig1_result.trace["servo"].times) + 1
        first = lines[1].split(",")
        assert len(first) == 4
        assert first[2] in {s.value for s in CommState}
