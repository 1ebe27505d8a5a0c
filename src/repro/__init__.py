"""repro — reproduction of "Exploiting System Dynamics for
Resource-Efficient Automotive CPS Design" (Maldonado et al., DATE 2019).

The library implements the paper's complete stack:

* :mod:`repro.control` — plants, exact delayed discretisation, LQR and
  pole-placement controller design (Section II-B);
* :mod:`repro.flexray` — the hybrid TT/ET FlexRay bus (Section II-A);
* :mod:`repro.testbed` — a simulated substitute for the paper's servo rig
  (Figure 2);
* :mod:`repro.core` — the contribution: switched-system dwell/wait
  characterisation, conservative PWL dwell models, the maximum-wait fixed
  point with closed-form bounds, and minimum TT-slot allocation
  (Sections III-IV);
* :mod:`repro.sim` — the dynamic-resource-allocation co-simulation
  (Figure 1 runtime, Figure 5 evaluation);
* :mod:`repro.baselines` — comparison analyses (CAN RTA, monotonic models,
  dedicated slots);
* :mod:`repro.solvers` — pluggable allocator and wait-analysis backends:
  decorator registries with capability metadata, the exact
  branch-and-bound search, and the annealing heuristic for large fleets;
* :mod:`repro.pipeline` — the declarative scenario API: ``Scenario`` in,
  ``DesignStudy`` runs the chain as named stages, structured
  JSON-serializable ``StudyResult`` out, with a registry of the paper's
  setups and a parallel batch executor;
* :mod:`repro.experiments` — drivers regenerating every table and figure
  (thin wrappers over the pipeline).

Quickstart::

    from repro import PAPER_TABLE_I, allocate, make_analyzed

    apps = make_analyzed(PAPER_TABLE_I, "non-monotonic")
    allocation = allocate("first-fit", apps)
    print(allocation.slot_names)   # [['C3', 'C6'], ['C2', 'C4'], ['C5', 'C1']]

or, declaratively::

    from repro import DesignStudy, get_scenario

    study = DesignStudy(get_scenario("paper-table1")).run()
    print(study.slot_count)        # 3
"""

from repro.core import (
    PAPER_TABLE_I,
    AllocationResult,
    AnalyzedApplication,
    DwellCurve,
    LinearSwitchedSystem,
    PwlDwellModel,
    TimingParameters,
    UnschedulableError,
    analyze_application,
    analyze_slot,
    characterize_application,
    characterize_curve,
    characterize_plant,
    characterize_response_source,
    compare_resource_usage,
    conservative_monotonic,
    fit_concave_envelope,
    fit_conservative_monotonic,
    fit_two_segment,
    from_timing_parameters,
    is_slot_schedulable,
    make_analyzed,
    max_wait_closed_form,
    max_wait_fixed_point,
    measure_dwell_curve,
    paper_application,
    per_wait_source,
    priority_order,
    simple_monotonic,
    two_segment,
)
from repro.control import (
    ContinuousStateSpace,
    DelayedStateSpace,
    PlantDefinition,
    SwitchedApplication,
    design_mode_controller,
    design_switched_application,
    discretize,
    discretize_with_delay,
    dlqr,
    make_plant,
    servo_rig,
    settling_time,
)
from repro.flexray import FlexRayBus, FlexRayConfig, FrameSpec, paper_bus_config
from repro.pipeline import (
    BusSpec,
    DesignStudy,
    DwellCurveCache,
    Scenario,
    StudyResult,
    get_scenario,
    run_many,
    scenario_grid,
    scenario_names,
)
from repro.sim import (
    AnalyticNetwork,
    CoSimApplication,
    CoSimulator,
    FlexRayNetwork,
    SimulationTrace,
    TTSlotArbiter,
)
from repro.solvers import (
    AllocatorSpec,
    AnalysisMethodSpec,
    SolverError,
    allocate,
    allocator_names,
    analysis_method_names,
    get_allocator,
    get_analysis_method,
    register_allocator,
    register_analysis_method,
    solver_table,
)
from repro.testbed import ServoRigConfig, ServoTestbed, default_servo_testbed

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "AllocatorSpec",
    "AnalysisMethodSpec",
    "AnalyticNetwork",
    "AnalyzedApplication",
    "BusSpec",
    "CoSimApplication",
    "CoSimulator",
    "ContinuousStateSpace",
    "DelayedStateSpace",
    "DesignStudy",
    "DwellCurve",
    "DwellCurveCache",
    "FlexRayBus",
    "FlexRayConfig",
    "FlexRayNetwork",
    "FrameSpec",
    "LinearSwitchedSystem",
    "PAPER_TABLE_I",
    "PlantDefinition",
    "PwlDwellModel",
    "Scenario",
    "ServoRigConfig",
    "ServoTestbed",
    "SimulationTrace",
    "SolverError",
    "StudyResult",
    "SwitchedApplication",
    "TTSlotArbiter",
    "TimingParameters",
    "UnschedulableError",
    "allocate",
    "allocator_names",
    "analysis_method_names",
    "analyze_application",
    "analyze_slot",
    "characterize_application",
    "characterize_curve",
    "characterize_plant",
    "characterize_response_source",
    "compare_resource_usage",
    "conservative_monotonic",
    "default_servo_testbed",
    "design_mode_controller",
    "design_switched_application",
    "discretize",
    "discretize_with_delay",
    "dlqr",
    "fit_concave_envelope",
    "fit_conservative_monotonic",
    "fit_two_segment",
    "from_timing_parameters",
    "get_allocator",
    "get_analysis_method",
    "get_scenario",
    "is_slot_schedulable",
    "make_analyzed",
    "make_plant",
    "max_wait_closed_form",
    "max_wait_fixed_point",
    "measure_dwell_curve",
    "paper_application",
    "paper_bus_config",
    "per_wait_source",
    "priority_order",
    "register_allocator",
    "register_analysis_method",
    "run_many",
    "scenario_grid",
    "scenario_names",
    "servo_rig",
    "settling_time",
    "simple_monotonic",
    "solver_table",
    "two_segment",
]
