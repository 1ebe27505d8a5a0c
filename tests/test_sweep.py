"""Tests for the seeded Monte-Carlo sweep subsystem."""

import json

import pytest

from repro.pipeline import (
    DwellCurveCache,
    get_scenario,
    run_many,
    run_sweep,
)
from repro.pipeline.stages import STAGES
from repro.pipeline.sweep import expand_cells, fixed_jobs
from repro.sim.stats import t_critical_95

#: Cheap co-sim base for every test: two-plant multirate roster subset,
#: short horizon, deterministic analytic network.  (The stride must stay
#: fine enough for the 2 ms loop's short dwell curve.)
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


class TestFixedJobs:
    def test_grid_times_replications(self):
        jobs = fixed_jobs(
            cheap_base(),
            axes={"loss_rate": [0.0, 0.1], "dwell_shape": ["non-monotonic"]},
            replications=3,
            seed0=5,
        )
        assert len(jobs) == 6
        cells = {job.cell for job in jobs}
        assert len(cells) == 2
        seeds = sorted(job.scenario.seed for job in jobs)
        assert seeds == [5, 5, 6, 6, 7, 7]

    def test_cell_names_encode_overrides(self):
        (job,) = fixed_jobs(cheap_base(), axes={"loss_rate": [0.25]})
        assert "loss_rate=0.25" in job.cell
        assert job.scenario.loss_rate == 0.25
        assert job.scenario.name.endswith("#seed0")

    def test_no_axes_is_pure_replication(self):
        jobs = fixed_jobs(cheap_base(), replications=4)
        assert len(jobs) == 4
        assert len({job.cell for job in jobs}) == 1

    def test_unknown_axis_field_raises(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            fixed_jobs(cheap_base(), axes={"bogus_field": [1]})

    def test_bad_replications_rejected(self):
        with pytest.raises(ValueError, match="replications"):
            fixed_jobs(cheap_base(), replications=0)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fixed_jobs(cheap_base(), axes={"loss_rate": []})

    def test_seed_axis_rejected(self):
        """Replication seeding owns the seed field; an axis over it would
        be silently clobbered, so it must be refused."""
        with pytest.raises(ValueError, match="seed"):
            fixed_jobs(cheap_base(), axes={"seed": [1, 2]})


class TestRunSweep:
    def test_serial_aggregation(self):
        # horizon long enough for seeded *second* arrivals to differ
        result = run_sweep(
            cheap_base(disturbance="sporadic", horizon=6.0),
            replications=3,
            max_workers=1,
            cache=DwellCurveCache(),
        )
        assert result.run_count == 3
        (cell,) = result.cells
        assert cell.runs == 3 and cell.failures == 0
        qoc = cell.metrics["qoc"]
        assert qoc["n"] == 3
        assert qoc["min"] <= qoc["mean"] <= qoc["max"]
        assert qoc["std"] > 0  # sporadic seeds genuinely differ
        # Student-t half-width: at n=3 the normal z=1.96 would
        # understate the interval by more than a factor of two.
        assert qoc["ci95"] == pytest.approx(t_critical_95(2) * qoc["std"] / 3**0.5)
        assert cell.deadlines_met_rate is not None
        assert cell.stopped_reason == "fixed"

    def test_jsonl_streaming(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        result = run_sweep(
            cheap_base(),
            axes={"loss_rate": [0.0, 0.05]},
            replications=2,
            max_workers=1,
            cache=DwellCurveCache(),
            jsonl_path=str(path),
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == result.run_count == 4
        rows = [json.loads(line) for line in lines]
        assert {row["cell"] for row in rows} == {c.name for c in result.cells}
        for row in rows:
            assert row["ok"] is True
            assert "qoc" in row and "seed" in row

    def test_thread_pool_matches_serial_cells(self):
        serial = run_sweep(
            cheap_base(), replications=2, max_workers=1, cache=DwellCurveCache()
        )
        threaded = run_sweep(
            cheap_base(), replications=2, max_workers=2, cache=DwellCurveCache()
        )
        assert serial.cells[0].metrics["qoc"]["mean"] == pytest.approx(
            threaded.cells[0].metrics["qoc"]["mean"]
        )

    def test_process_executor_smoke(self):
        cache = DwellCurveCache()
        # wait_step=3 is used nowhere else, so the (forked) workers
        # cannot have inherited these measurements and must ship them.
        result = run_sweep(
            cheap_base(disturbance="sporadic", wait_step=3),
            replications=2,
            executor="process",
            max_workers=2,
            cache=cache,
        )
        assert result.run_count == 2
        assert result.cells[0].failures == 0
        # worker measurements were merged back into the parent cache
        assert len(cache) > 0

    def test_failed_cells_are_counted_not_raised(self):
        # deadline_scale tiny enough to make the allocation infeasible
        result = run_sweep(
            cheap_base(),
            axes={"deadline_scale": [1e-3]},
            replications=2,
            max_workers=1,
            cache=DwellCurveCache(),
        )
        (cell,) = result.cells
        assert cell.failures == 2
        assert all(not row["ok"] for row in result.rows)
        assert "failed_stage" in result.rows[0]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_sweep(cheap_base(), executor="fiber", cache=DwellCurveCache())

    def test_to_dict_is_json_safe(self):
        result = run_sweep(
            cheap_base(), replications=1, max_workers=1, cache=DwellCurveCache()
        )
        text = json.dumps(result.to_dict())
        assert "sweep-base" in text
        assert "report" not in text  # only data, no rendered strings


def _crash_on_seed(monkeypatch, crash_seed):
    """Make the design chain of one replication seed raise.

    A RuntimeError is *not* one of the domain errors the stage runner
    converts into a failed StudyResult — it used to propagate out of
    ``future.result()`` and abort the whole sweep.  It is raised by the
    first stage, which every path runs: ``DesignStudy.run`` and a pool
    worker's chunk alike."""
    real_stage = STAGES["characterize"]

    def characterize(ctx):
        if ctx.scenario.seed == crash_seed:
            raise RuntimeError("injected crash")
        return real_stage(ctx)

    monkeypatch.setitem(STAGES, "characterize", characterize)


class TestCrashProofReplication:
    def test_serial_crash_becomes_worker_row(self, monkeypatch):
        _crash_on_seed(monkeypatch, crash_seed=1)
        result = run_sweep(
            cheap_base(disturbance="sporadic", horizon=6.0),
            replications=3,
            max_workers=1,
            cache=DwellCurveCache(),
        )
        assert result.run_count == 3  # the crash lost no landed rows
        (cell,) = result.cells
        assert cell.runs == 3 and cell.failures == 1
        crashed = [row for row in result.rows if not row["ok"]]
        assert len(crashed) == 1
        assert crashed[0]["failed_stage"] == "worker"
        assert "RuntimeError" in crashed[0]["detail"]
        assert crashed[0]["seed"] == 1
        # the two healthy replications still aggregate, and the crash
        # contributes no synthetic values to any metric (duration incl.)
        assert cell.metrics["qoc"]["n"] == 2
        assert cell.metrics["duration"]["n"] == 2
        assert cell.metrics["duration"]["min"] > 0.0

    def test_thread_pool_crash_keeps_every_cell(self, monkeypatch):
        _crash_on_seed(monkeypatch, crash_seed=0)
        result = run_sweep(
            cheap_base(),
            axes={"loss_rate": [0.0, 0.05]},
            replications=2,
            max_workers=2,
            cache=DwellCurveCache(),
        )
        assert result.run_count == 4
        assert {cell.failures for cell in result.cells} == {1}
        for cell in result.cells:
            assert cell.runs == 2
            assert cell.metrics["qoc"]["n"] == 1

    def test_crash_row_is_streamed_to_jsonl(self, monkeypatch, tmp_path):
        _crash_on_seed(monkeypatch, crash_seed=0)
        path = tmp_path / "rows.jsonl"
        run_sweep(
            cheap_base(),
            replications=2,
            max_workers=1,
            cache=DwellCurveCache(),
            jsonl_path=str(path),
        )
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        bad = next(row for row in rows if not row["ok"])
        assert bad["failed_stage"] == "worker"


class TestJsonlPathHandling:
    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "out" / "deep" / "rows.jsonl"
        run_sweep(
            cheap_base(),
            replications=1,
            max_workers=1,
            cache=DwellCurveCache(),
            jsonl_path=str(path),
        )
        assert path.exists()

    def test_stream_is_utf8(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        run_sweep(
            cheap_base(),
            replications=1,
            max_workers=1,
            cache=DwellCurveCache(),
            jsonl_path=str(path),
        )
        # decodes as UTF-8 regardless of platform default encoding
        rows = path.read_bytes().decode("utf-8").strip().splitlines()
        assert json.loads(rows[0])["round"] == 0


class TestKeepResults:
    def test_keep_results_false_still_aggregates(self):
        result = run_sweep(
            cheap_base(),
            replications=2,
            max_workers=1,
            cache=DwellCurveCache(),
            keep_results=False,
        )
        assert result.results == []
        assert result.run_count == 2
        assert result.cells[0].metrics["qoc"]["n"] == 2

    def test_rows_carry_round_field(self):
        result = run_sweep(
            cheap_base(), replications=2, max_workers=1, cache=DwellCurveCache()
        )
        assert all(row["round"] == 0 for row in result.rows)


class TestExpandCells:
    def test_cells_are_seed_free(self):
        cells = expand_cells(cheap_base(), axes={"loss_rate": [0.0, 0.1]})
        assert len(cells) == 2
        assert all(s.seed == 0 for _, s in cells)
        assert "#seed" not in cells[0][0]


class TestRunManyRaises:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "thread"])
    def test_first_crash_in_input_order_after_every_study(
        self, monkeypatch, workers
    ):
        real_stage = STAGES["characterize"]
        ran = []

        def characterize(ctx):
            ran.append(ctx.scenario.seed)
            if ctx.scenario.seed in (1, 2):
                raise RuntimeError(f"crash {ctx.scenario.seed}")
            return real_stage(ctx)

        monkeypatch.setitem(STAGES, "characterize", characterize)
        scenarios = [cheap_base(cosim=False).derive(seed=s) for s in range(4)]
        with pytest.raises(RuntimeError, match="crash 1"):
            run_many(scenarios, max_workers=workers, cache=DwellCurveCache())
        assert sorted(ran) == [0, 1, 2, 3]


class TestRunManyProcess:
    def test_results_in_input_order(self):
        scenarios = [
            cheap_base().derive(seed=s, disturbance="sporadic") for s in range(3)
        ]
        results = run_many(
            scenarios, executor="process", max_workers=2, cache=DwellCurveCache()
        )
        assert [r.scenario.seed for r in results] == [0, 1, 2]
        assert all(r.ok for r in results)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_many([cheap_base()], executor="fiber")

    def test_registry_names_resolve_in_parent(self):
        results = run_many(
            ["paper-table1"], executor="process", max_workers=2
        )
        assert results[0].slot_count == 3
