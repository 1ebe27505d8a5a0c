"""Tests for adaptive Monte-Carlo sweeps (repro.pipeline.adaptive).

Unit tests drive :class:`AdaptiveScheduler` with synthetic rows (no
simulation), the integration tests run real co-sim sweeps on the cheap
two-plant multirate base and check determinism, executor parity, and
the budget-saving acceptance bar.
"""

import pytest

from repro.pipeline import DwellCurveCache, Scenario, get_scenario, run_sweep
from repro.pipeline.adaptive import AdaptiveScheduler
from repro.sim.stats import t_critical_95


def cheap_base(**overrides):
    settings = dict(
        apps=("motor-current-loop", "servo-rig"),
        wait_step=4,
        horizon=2.0,
    )
    settings.update(overrides)
    return get_scenario("multirate-cosim-analytic").derive(
        name="sweep-base", **settings
    )


def _cells(n):
    return [(f"cell{i}", Scenario(name=f"cell{i}")) for i in range(n)]


def _row(qoc, ok=True, round_no=0):
    row = {
        "cell": "c",
        "scenario": "s",
        "seed": 0,
        "round": round_no,
        "ok": ok,
        "duration": 0.01,
        "slot_count": 1,
    }
    if ok:
        row.update({"qoc": qoc, "all_deadlines_met": True})
    else:
        row.update({"failed_stage": "worker", "detail": "boom"})
    return row


class TestSchedulerFixedMode:
    def test_one_round_then_fixed_stop(self):
        sched = AdaptiveScheduler(_cells(2), min_replications=3)
        jobs = sched.initial_grants()
        assert len(jobs) == 6
        # replication-major: every cell gets rep r before any gets r+1
        assert [r for _, r in jobs] == [0, 0, 1, 1, 2, 2]
        for cell, _ in jobs:
            cell.record(_row(1.0))
        assert sched.next_grants() == []
        assert all(c.stopped_reason == "fixed" for c in sched.cells)

    def test_fixed_mode_rejects_adaptive_knobs(self):
        with pytest.raises(ValueError, match="adaptive"):
            AdaptiveScheduler(_cells(1), min_replications=2, max_replications=5)
        with pytest.raises(ValueError, match="ci_relative"):
            AdaptiveScheduler(_cells(1), min_replications=2, ci_relative=True)


class TestSchedulerValidation:
    def test_adaptive_needs_a_cap(self):
        with pytest.raises(ValueError, match="max_replications and/or budget"):
            AdaptiveScheduler(_cells(1), min_replications=2, ci_target=0.1)

    def test_adaptive_needs_two_minimum(self):
        with pytest.raises(ValueError, match=">= 2"):
            AdaptiveScheduler(
                _cells(1), min_replications=1, ci_target=0.1, budget=10
            )

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError, match="ci_target"):
            AdaptiveScheduler(
                _cells(1), min_replications=2, ci_target=-1.0, budget=10
            )
        with pytest.raises(ValueError, match="max_replications"):
            AdaptiveScheduler(
                _cells(1),
                min_replications=4,
                ci_target=0.1,
                max_replications=3,
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            AdaptiveScheduler([], min_replications=2)


class TestSchedulerStopping:
    def test_converged_cell_stops_and_frees_budget(self):
        sched = AdaptiveScheduler(
            _cells(2),
            min_replications=2,
            ci_target=0.5,
            max_replications=10,
        )
        quiet, noisy = sched.cells
        for _ in sched.initial_grants():
            pass
        # quiet cell: identical values -> zero half-width -> stops
        quiet.record(_row(1.0))
        quiet.record(_row(1.0))
        # noisy cell: wide spread -> stays open
        noisy.record(_row(0.0))
        noisy.record(_row(10.0))
        jobs = sched.next_grants()
        assert quiet.stopped_reason == "ci-target"
        assert noisy.stopped_reason is None
        # the whole round pool (2 cells x 2 replications) goes to the open cell
        assert all(cell is noisy for cell, _ in jobs)
        assert len(jobs) == 4

    def test_max_replications_retires_unconverged_cell(self):
        sched = AdaptiveScheduler(
            _cells(1), min_replications=2, ci_target=1e-9, max_replications=4
        )
        jobs = sched.initial_grants()
        values = iter([0.0, 5.0, 1.0, 6.0])
        for cell, _ in jobs:
            cell.record(_row(next(values)))
        jobs = sched.next_grants()
        assert len(jobs) == 2  # up to the cap of 4
        for cell, _ in jobs:
            cell.record(_row(next(values)))
        assert sched.next_grants() == []
        assert sched.cells[0].stopped_reason == "max-replications"
        assert sched.cells[0].next_rep == 4

    def test_budget_exhaustion_stops_open_cells(self):
        sched = AdaptiveScheduler(
            _cells(2), min_replications=2, ci_target=1e-9, budget=5
        )
        jobs = sched.initial_grants()
        assert len(jobs) == 4
        for cell, r in jobs:
            # genuinely noisy values so no cell reaches the 1e-9 target
            cell.record(_row(cell.index + 3.0 * r, round_no=0))
        jobs = sched.next_grants()
        assert len(jobs) == 1  # only one replication of budget left
        assert sched.granted == 5
        for cell, r in jobs:
            cell.record(_row(cell.index + 3.0 * r, round_no=1))
        assert sched.next_grants() == []
        assert all(c.stopped_reason == "budget" for c in sched.cells)

    def test_all_failed_cell_stops_as_failed(self):
        sched = AdaptiveScheduler(
            _cells(1), min_replications=2, ci_target=0.5, max_replications=8
        )
        for cell, _ in sched.initial_grants():
            cell.record(_row(None, ok=False))
        assert sched.next_grants() == []
        assert sched.cells[0].stopped_reason == "failed"
        assert sched.saved(sched.cells[0]) == 6

    def test_relative_target_scales_with_mean(self):
        sched = AdaptiveScheduler(
            _cells(1),
            min_replications=2,
            ci_target=0.5,
            ci_relative=True,
            max_replications=8,
        )
        (cell,) = sched.cells
        for _ in sched.initial_grants():
            pass
        cell.record(_row(100.0))
        cell.record(_row(102.0))
        # half-width ~ 12.7 (t(1)=12.706, std ~ 1.41); threshold = 50.5
        assert sched.threshold(cell) == pytest.approx(0.5 * 101.0)
        assert sched.next_grants() == []
        assert cell.stopped_reason == "ci-target"


class TestAdaptiveSweepIntegration:
    ADAPTIVE = dict(
        replications=2,
        ci_target=0.12,
        ci_relative=True,
        max_replications=12,
        cache=None,  # replaced per call
    )

    def _adaptive(self, executor="thread", max_workers=1):
        kwargs = dict(self.ADAPTIVE)
        kwargs["cache"] = DwellCurveCache()
        return run_sweep(
            cheap_base(horizon=6.0),
            axes={"disturbance": ["one-shot", "sporadic"]},
            executor=executor,
            max_workers=max_workers,
            **kwargs,
        )

    def test_deterministic_cell_stops_at_minimum(self):
        result = self._adaptive()
        by_name = {c.name: c for c in result.cells}
        quiet = by_name["sweep-base[disturbance=one-shot]"]
        # one-shot disturbances ignore the seed -> zero variance
        assert quiet.runs == 2
        assert quiet.stopped_reason == "ci-target"
        assert quiet.metrics["qoc"]["ci95"] == 0.0

    def test_same_seeds_same_stop_rounds(self):
        first = self._adaptive()
        second = self._adaptive()
        for a, b in zip(first.cells, second.cells):
            assert a.name == b.name
            assert a.runs == b.runs
            assert a.rounds == b.rounds
            assert a.stopped_reason == b.stopped_reason
            assert a.metrics["qoc"]["mean"] == b.metrics["qoc"]["mean"]
        assert first.rounds == second.rounds

    def test_thread_process_parity(self):
        threaded = self._adaptive(executor="thread", max_workers=2)
        processed = self._adaptive(executor="process", max_workers=2)
        for a, b in zip(threaded.cells, processed.cells):
            assert a.runs == b.runs
            assert a.stopped_reason == b.stopped_reason
            assert a.metrics["qoc"]["mean"] == pytest.approx(
                b.metrics["qoc"]["mean"]
            )

    def test_adaptive_beats_fixed_at_equal_ci(self):
        """The acceptance bar: >= 25 % fewer replications at equal CI."""
        adaptive = self._adaptive()
        assert all(c.stopped_reason == "ci-target" for c in adaptive.cells)
        worst = max(c.runs for c in adaptive.cells)
        fixed = run_sweep(
            cheap_base(horizon=6.0),
            axes={"disturbance": ["one-shot", "sporadic"]},
            replications=worst,
            max_workers=1,
            cache=DwellCurveCache(),
        )
        # the fixed grid at the adaptive worst-cell count also meets the
        # target everywhere -- same precision, more replications
        for cell in fixed.cells:
            qoc = cell.metrics["qoc"]
            assert qoc["ci95"] <= 0.12 * abs(qoc["mean"]) + 1e-12
        spent = adaptive.replications_spent
        assert spent <= 0.75 * fixed.replications_spent
        assert adaptive.replications_saved > 0

    def test_seed_compatibility_with_fixed_mode(self):
        """Replication r of a cell uses seed seed0+r in both modes."""
        adaptive = self._adaptive()
        for cell in adaptive.cells:
            seeds = sorted(
                row["seed"] for row in adaptive.rows if row["cell"] == cell.name
            )
            assert seeds == list(range(len(seeds)))

    def test_budget_bound_is_respected(self):
        result = run_sweep(
            cheap_base(horizon=6.0),
            axes={"disturbance": ["one-shot", "sporadic"]},
            replications=2,
            ci_target=1e-9,  # unreachable for the sporadic cell
            budget=7,
            max_workers=1,
            cache=DwellCurveCache(),
        )
        assert result.replications_spent <= 7
        assert any(c.stopped_reason == "budget" for c in result.cells)

    def test_adaptive_mode_in_result_provenance(self):
        result = self._adaptive()
        assert result.mode == "adaptive"
        assert result.rounds >= 2
        assert result.config["ci_target"] == 0.12
        payload = result.to_dict()
        assert payload["mode"] == "adaptive"
        assert payload["replications_spent"] == result.run_count
        assert all("stopped_reason" in c for c in payload["cells"])
        assert all(row["round"] >= 0 for row in payload["runs"])

    def test_report_mentions_adaptive_mode(self):
        result = self._adaptive()
        text = result.report()
        assert "adaptive mode" in text
        assert "ci-target" in text


class TestStudentTHalfWidth:
    def test_sweep_ci_matches_t_table(self):
        result = run_sweep(
            cheap_base(disturbance="sporadic", horizon=6.0),
            replications=4,
            max_workers=1,
            cache=DwellCurveCache(),
        )
        qoc = result.cells[0].metrics["qoc"]
        assert qoc["ci95"] == pytest.approx(
            t_critical_95(3) * qoc["std"] / 4**0.5
        )
