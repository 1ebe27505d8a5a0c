"""Tests for the repro.pipeline scenario API.

Covers the Scenario/StudyResult JSON round trips, the DesignStudy stage
machinery, the registry, and the batch executor's dwell-measurement
memoization (the acceptance criteria of the pipeline redesign).
"""

import json

import numpy as np
import pytest

from repro.pipeline import (
    BusSpec,
    DesignStudy,
    DwellCurveCache,
    Scenario,
    StudyResult,
    get_scenario,
    register_scenario,
    run_many,
    scenario_grid,
    scenario_names,
)

#: A small, fast simulation roster for cache/sweep tests.
FAST_SIM = dict(apps=("servo-rig", "throttle-by-wire"), wait_step=16)


class TestScenario:
    def test_json_round_trip(self):
        scenario = Scenario(
            name="rt",
            source="simulation",
            apps=("servo-rig",),
            dwell_shape="conservative-monotonic",
            method="fixed-point",
            allocator="best-fit",
            deadline_scale=1.5,
            wait_step=4,
            bus=BusSpec(static_slots=8),
            cosim=True,
            network="flexray",
            horizon=12.0,
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_rejects_unknown_choices(self):
        with pytest.raises(ValueError, match="source"):
            Scenario(name="x", source="hardware")
        with pytest.raises(ValueError, match="allocator"):
            Scenario(name="x", allocator="random-fit")
        with pytest.raises(ValueError, match="deadline_scale"):
            Scenario(name="x", deadline_scale=0.0)
        with pytest.raises(ValueError, match="wait_step"):
            Scenario(name="x", wait_step=0)

    def test_derive_overrides_and_names(self):
        base = get_scenario("paper-table1")
        derived = base.derive(allocator="best-fit")
        assert derived.allocator == "best-fit"
        assert derived.source == base.source
        assert derived.name != base.name
        assert base.name in derived.name

    def test_bus_spec_config_round_trip(self):
        spec = BusSpec(cycle_length=0.004, static_slots=6)
        assert BusSpec.from_config(spec.to_config()) == spec


class TestRegistry:
    def test_paper_scenarios_registered(self):
        names = scenario_names()
        for expected in ("paper-table1", "sim-table1", "fig3-servo", "fig5-cosim"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no-such-scenario"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("paper-table1"))

    def test_default_grid_has_twelve_points(self):
        grid = scenario_grid("paper-table1")
        assert len(grid) == 12
        assert len({s.name for s in grid}) == 12


class TestDesignStudy:
    def test_paper_table1_reproduces_section_v(self):
        study = DesignStudy(get_scenario("paper-table1")).run()
        assert study.ok
        assert study.slot_count == 3
        assert study.artifact("allocate")["slots"] == [
            ["C3", "C6"],
            ["C2", "C4"],
            ["C5", "C1"],
        ]
        assert study.stage("cosim").status == "skipped"

    def test_monotonic_needs_more_slots(self):
        study = DesignStudy(get_scenario("paper-table1-monotonic")).run()
        assert study.slot_count == 5

    def test_accepts_registry_name(self):
        assert DesignStudy("paper-table1-optimal").run().slot_count == 3

    def test_study_result_json_round_trip_lossless(self):
        study = DesignStudy(get_scenario("paper-table1")).run()
        wire = study.to_json()
        restored = StudyResult.from_json(wire)
        assert restored == study
        assert json.loads(restored.to_json()) == json.loads(wire)

    def test_stage_artifacts_are_plain_json(self):
        study = DesignStudy(get_scenario("paper-table1")).run()
        # json.dumps with allow_nan=False would reject inf; the artifacts
        # of a feasible study must be strictly JSON-typed.
        json.dumps(study.to_dict())
        analyze = study.artifact("analyze")
        assert all(row["feasible_alone"] for row in analyze["applications"])

    def test_infeasible_scenario_fails_gracefully(self):
        scenario = get_scenario("paper-table1").derive(deadline_scale=0.05)
        study = DesignStudy(scenario).run()
        assert not study.ok
        assert study.stage("allocate").status == "failed"
        assert "dedicated TT slot" in study.stage("allocate").detail
        assert study.stage("cosim").status == "skipped"
        assert study.slot_count is None
        # failed studies still serialize and round-trip
        assert StudyResult.from_json(study.to_json()) == study

    def test_servo_scenario_characterizes_rig(self):
        study = DesignStudy(
            get_scenario("fig3-servo").derive(wait_step=16), cache=DwellCurveCache()
        ).run()
        assert study.ok
        assert study.slot_count == 1
        curves = study.artifact("characterize")["curves"]
        assert "servo-rig" in curves
        assert len(curves["servo-rig"]["waits"]) >= 2

    def test_simulation_cosim_meets_deadlines(self):
        scenario = get_scenario("fig5-cosim-analytic").derive(**FAST_SIM)
        study = DesignStudy(scenario).run()
        assert study.ok
        cosim = study.artifact("cosim")
        assert cosim["all_deadlines_met"]
        assert len(cosim["applications"]) == len(FAST_SIM["apps"])

    def test_unknown_app_subset_fails_characterize(self):
        scenario = get_scenario("sim-table1").derive(apps=("no-such-plant",))
        study = DesignStudy(scenario, cache=DwellCurveCache()).run()
        assert not study.ok
        assert study.stage("characterize").status == "failed"

    def test_servo_source_validates_app_subset(self):
        scenario = get_scenario("fig3-servo").derive(apps=("typo",))
        study = DesignStudy(scenario, cache=DwellCurveCache()).run()
        assert study.stage("characterize").status == "failed"
        assert "typo" in study.stage("characterize").detail

    def test_raise_for_failure(self):
        good = DesignStudy(get_scenario("paper-table1")).run()
        assert good.raise_for_failure() is good
        bad = DesignStudy(
            get_scenario("paper-table1").derive(deadline_scale=0.05)
        ).run()
        with pytest.raises(ValueError, match="failed at stage 'allocate'"):
            bad.raise_for_failure()


class TestDwellCurveCache:
    def test_measurement_is_memoized(self):
        cache = DwellCurveCache()
        first = cache.measurement("servo-rig", 1000.0, wait_step=16)
        second = cache.measurement("servo-rig", 1000.0, wait_step=16)
        assert first is second
        assert cache.misses == 1 and cache.hits == 1

    def test_distinct_keys_measure_separately(self):
        cache = DwellCurveCache()
        cache.measurement("servo-rig", 1000.0, wait_step=16)
        cache.measurement("servo-rig", 1000.0, wait_step=8)
        assert cache.misses == 2 and cache.hits == 0

    def test_clear_resets_stats(self):
        cache = DwellCurveCache()
        cache.measurement("servo-rig", 1000.0, wait_step=16)
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0


class TestToJsonable:
    def test_real_arrays_become_plain_nested_lists(self):
        from repro.pipeline.serialize import to_jsonable

        for array in (
            np.array([True, False]),
            np.arange(3, dtype=np.int32),
            np.array([1, 2], dtype=np.uint8),
            np.array([0.5, -0.0, 1e30], dtype=np.float32),
            np.linspace(0.0, 1.0, 6).reshape(3, 2),
        ):
            out = to_jsonable(array)
            assert out == array.tolist()
            flat = out if array.ndim == 1 else [x for row in out for x in row]
            assert {type(x) for x in flat} <= {bool, int, float}
            assert json.loads(json.dumps(out)) == out

    def test_zero_dim_array_becomes_its_scalar(self):
        from repro.pipeline.serialize import to_jsonable

        assert to_jsonable(np.array(2.5)) == 2.5
        assert type(to_jsonable(np.array(2.5))) is float
        assert to_jsonable(np.array(7)) == 7

    def test_complex_and_object_arrays_convert_per_item(self):
        from repro.pipeline.serialize import to_jsonable

        assert to_jsonable(np.array([1 + 2j])) == ["(1+2j)"]
        assert to_jsonable(np.array([np.float64(1.5), (1, 2)], dtype=object)) == [
            1.5,
            [1, 2],
        ]


class TestRunMany:
    def test_grid_sweep_shares_dwell_measurements(self):
        cache = DwellCurveCache()
        base = get_scenario("sim-table1").derive(**FAST_SIM)
        grid = scenario_grid(base, deadline_scales=(1.0, 1.5, 2.0))
        assert len(grid) >= 12
        results = run_many(grid, cache=cache)
        assert len(results) == len(grid)
        assert all(result.ok for result in results)
        # one measurement per (plant, detuning, stride); everything else
        # must come from the cache
        assert cache.misses == len(FAST_SIM["apps"])
        assert cache.hits == (len(grid) - 1) * len(FAST_SIM["apps"])
        # per-study artifacts record their cache economy
        recorded_hits = sum(
            result.artifact("characterize")["cache"]["hits"] for result in results
        )
        assert recorded_hits == cache.hits

    def test_results_in_input_order_and_serializable(self):
        results = run_many(
            ["paper-table1", "paper-table1-monotonic"], max_workers=2
        )
        assert [r.scenario.name for r in results] == [
            "paper-table1",
            "paper-table1-monotonic",
        ]
        assert [r.slot_count for r in results] == [3, 5]
        for result in results:
            assert StudyResult.from_json(result.to_json()) == result

    def test_serial_fallback(self):
        assert run_many([], max_workers=4) == []
        (only,) = run_many(["paper-table1"], max_workers=1)
        assert only.slot_count == 3


class TestScenarioCoSimFields:
    """The seed/kernel/disturbance/loss knobs added with the event kernel."""

    def test_new_fields_round_trip(self):
        scenario = Scenario(
            name="knobs",
            source="multirate",
            cosim=True,
            network="flexray",
            kernel="event",
            disturbance="sporadic",
            seed=42,
            loss_rate=0.25,
        )
        clone = Scenario.from_json(scenario.to_json())
        assert clone == scenario
        assert clone.seed == 42 and clone.loss_rate == 0.25

    def test_old_documents_still_load(self):
        """Scenario JSON written before the kernel refactor deserializes
        with the new fields at their defaults."""
        legacy_doc = {
            "name": "old", "description": "", "source": "paper", "apps": None,
            "dwell_shape": "non-monotonic", "method": "closed-form",
            "allocator": "first-fit", "deadline_scale": 1.0, "wait_step": 2,
            "bus": None, "cosim": False, "network": "analytic", "horizon": None,
        }
        scenario = Scenario.from_dict(legacy_doc)
        assert scenario.kernel == "auto"
        assert scenario.disturbance == "one-shot"
        assert scenario.seed == 0 and scenario.loss_rate == 0.0

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            Scenario(name="x", kernel="quantum")
        for removed in ("legacy", "batch"):
            with pytest.raises(ValueError, match=r"kernel.*'auto', 'event'"):
                Scenario(name="x", kernel=removed)
        with pytest.raises(ValueError, match="disturbance"):
            Scenario(name="x", disturbance="tsunami")
        with pytest.raises(ValueError, match="loss_rate"):
            Scenario(name="x", loss_rate=1.5)
        with pytest.raises(ValueError, match="seed"):
            Scenario(name="x", seed=0.5)


class TestMultiRateStudy:
    """Acceptance: a >=2-period scenario runs end-to-end via DesignStudy."""

    def test_multirate_scenario_produces_valid_trace(self):
        study = DesignStudy(
            get_scenario("multirate-cosim-analytic").derive(
                wait_step=4, horizon=3.0
            ),
            cache=DwellCurveCache(),
        ).run()
        assert study.ok
        trace = study.attachments.trace
        periods = {
            name: app.times[1] - app.times[0]
            for name, app in trace.apps.items()
        }
        assert len({round(p, 9) for p in periods.values()}) >= 2
        assert periods["motor-current-loop"] == pytest.approx(0.002)
        artifact = study.artifact("cosim")
        assert artifact["kernel"] == "auto"
        # Multi-rate analytic fleets are eligible for the batch fast path.
        assert artifact["kernel_used"] == "batch"
        assert artifact["all_deadlines_met"] is True
        assert artifact["qoc"] > 0

    def test_seed_reaches_loss_injection(self):
        base = get_scenario("fig5-cosim").derive(
            apps=("servo-rig", "throttle-by-wire"),
            wait_step=16,
            horizon=10.0,
            loss_rate=0.4,
        )
        cache = DwellCurveCache()
        first = DesignStudy(base.derive(seed=1), cache=cache).run()
        again = DesignStudy(base.derive(seed=1), cache=cache).run()
        other = DesignStudy(base.derive(seed=2), cache=cache).run()
        lost = lambda s: s.artifact("cosim")["loss"]["lost"]  # noqa: E731
        assert lost(first) == lost(again)  # reproducible
        assert lost(first) > 0
        qoc = lambda s: s.artifact("cosim")["qoc"]  # noqa: E731
        assert qoc(first) == qoc(again)
        assert qoc(first) != qoc(other)  # the seed genuinely matters


class TestDwellCacheExportMerge:
    def test_export_then_merge_transfers_measurements(self):
        source = DwellCurveCache()
        source.measurement("servo-rig", 1000.0, wait_step=16)
        exported = source.export_entries()
        assert len(exported) == 1
        target = DwellCurveCache()
        assert target.merge_entries(exported) == 1
        # the merged entry serves lookups without re-measuring
        target.measurement("servo-rig", 1000.0, wait_step=16)
        assert target.hits == 1 and target.misses == 0

    def test_exclude_filters_already_shipped_keys(self):
        cache = DwellCurveCache()
        cache.measurement("servo-rig", 1000.0, wait_step=16)
        shipped = set(cache.export_entries())
        cache.measurement("throttle-by-wire", 800.0, wait_step=16)
        fresh = cache.export_entries(exclude=shipped)
        assert len(fresh) == 1
        (key,) = fresh
        assert "throttle-by-wire" in key

    def test_merge_never_overwrites(self):
        cache = DwellCurveCache()
        first = cache.measurement("servo-rig", 1000.0, wait_step=16)
        again = DwellCurveCache()
        again.measurement("servo-rig", 1000.0, wait_step=16)
        assert cache.merge_entries(again.export_entries()) == 0
        assert cache.measurement("servo-rig", 1000.0, wait_step=16) is first
