"""Unified scenario pipeline: declarative studies, structured results.

The paper's workflow — plant model -> dwell characterisation -> PWL
model fit -> wait-time analysis -> TT-slot allocation -> co-simulation
verification — as a composable API:

* :class:`~repro.pipeline.scenario.Scenario` — a run described as data
  (source, dwell shape, analysis method, allocator, bus, co-sim);
* :class:`~repro.pipeline.runner.DesignStudy` — executes the chain as
  named, introspectable stages;
* :class:`~repro.pipeline.result.StudyResult` — per-stage artifacts,
  timings, and provenance; round-trips to/from JSON;
* :mod:`~repro.pipeline.registry` — the paper's Table I / Fig 3-5
  setups by name, plus :func:`scenario_grid` sweeps;
* :func:`~repro.pipeline.runner.run_many` — parallel batch execution
  with memoized dwell-curve measurements
  (:class:`~repro.pipeline.cache.DwellCurveCache`).

Quickstart::

    from repro.pipeline import DesignStudy, get_scenario, run_many, scenario_grid

    study = DesignStudy(get_scenario("paper-table1")).run()
    print(study.slot_count)          # 3
    print(study.to_json(indent=2))   # machine-readable artifacts

    sweep = run_many(scenario_grid("paper-table1"))
"""

from repro.pipeline.adaptive import AdaptiveScheduler, CellState
from repro.pipeline.cache import (
    GLOBAL_DWELL_CACHE,
    DwellCurveCache,
    MeasuredApplication,
    ServoMeasurement,
)
from repro.pipeline.registry import (
    get_scenario,
    register_scenario,
    scenario_grid,
    scenario_names,
    scenarios,
)
from repro.pipeline.result import StudyAttachments, StudyResult
from repro.pipeline.runner import DesignStudy, run_many
from repro.pipeline.scenario import (
    DISTURBANCES,
    DWELL_SHAPES,
    KERNELS,
    SOURCES,
    BusSpec,
    Scenario,
)
from repro.pipeline.serialize import to_jsonable
from repro.pipeline.stages import STAGE_ORDER, StageRecord, StudyContext
from repro.pipeline.sweep import (
    CellStats,
    SweepJob,
    SweepResult,
    crash_row,
    expand_cells,
    fixed_jobs,
    run_sweep,
    study_row,
)

__all__ = [
    "AdaptiveScheduler",
    "BusSpec",
    "CellState",
    "CellStats",
    "DISTURBANCES",
    "DWELL_SHAPES",
    "DesignStudy",
    "DwellCurveCache",
    "GLOBAL_DWELL_CACHE",
    "KERNELS",
    "MeasuredApplication",
    "SOURCES",
    "STAGE_ORDER",
    "Scenario",
    "ServoMeasurement",
    "StageRecord",
    "StudyAttachments",
    "StudyContext",
    "StudyResult",
    "SweepJob",
    "SweepResult",
    "crash_row",
    "expand_cells",
    "fixed_jobs",
    "get_scenario",
    "study_row",
    "register_scenario",
    "run_many",
    "run_sweep",
    "scenario_grid",
    "scenario_names",
    "scenarios",
    "sweep",
    "to_jsonable",
]
