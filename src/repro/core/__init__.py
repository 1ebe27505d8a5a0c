"""The paper's primary contribution.

* :mod:`repro.core.timing_params` — application timing parameters and the
  verbatim Table I;
* :mod:`repro.core.switching` — switched closed-loop responses (Eqs. 3-4)
  and dwell/wait curve measurement;
* :mod:`repro.core.pwl` — piecewise-linear dwell models and conservative
  upper-bound fitting (Figure 4);
* :mod:`repro.core.schedulability` — maximum-wait fixed point, closed-form
  bounds, and worst-case response times (Section IV, Eqs. 5-21);
* :mod:`repro.core.allocation` — first-fit slot allocation plus optimal
  and dedicated baselines (Sections IV-V);
* :mod:`repro.core.characterization` — the end-to-end pipeline from plant
  to Table-I-style parameters.
"""

from repro.core.allocation import (
    AllocationResult,
    best_fit_allocation,
    compare_resource_usage,
    dedicated_allocation,
    first_fit_allocation,
    make_analyzed,
    optimal_allocation,
    worst_fit_allocation,
)
from repro.core.characterization import (
    CharacterizationResult,
    characterize_application,
    characterize_curve,
    characterize_plant,
    characterize_response_source,
)
from repro.core.pwl import (
    CurveFits,
    DwellCurve,
    PwlDwellModel,
    conservative_monotonic,
    fit_concave_envelope,
    fit_conservative_monotonic,
    fit_two_segment,
    from_timing_parameters,
    simple_monotonic,
    two_segment,
)
from repro.core.schedulability import (
    AnalyzedApplication,
    ResponseAnalysis,
    UnschedulableError,
    analyze_application,
    analyze_slot,
    blocking_term,
    interference_utilization,
    is_slot_schedulable,
    max_wait_closed_form,
    max_wait_fixed_point,
    max_wait_lower_bound,
    split_by_priority,
)
from repro.core.critical_instant import (
    CriticalInstantResult,
    simulate_critical_instant,
    wait_time_matches_fixed_point,
)
from repro.core.robustness import (
    DwellMarginResult,
    dwell_margin,
    scale_applications,
    scale_dwell_model,
    slot_dwell_margin,
)
from repro.core.sensitivity import (
    SensitivityPoint,
    StaticSegmentUsage,
    critical_scale,
    deadline_sensitivity,
    scale_deadlines,
    static_segment_usage,
)
from repro.core.switching import (
    LinearSwitchedSystem,
    measure_dwell_curve,
    per_wait_source,
)
from repro.core.timing_params import (
    PAPER_TABLE_I,
    TimingParameters,
    paper_application,
    priority_order,
)

__all__ = [
    "AllocationResult",
    "AnalyzedApplication",
    "CharacterizationResult",
    "CurveFits",
    "DwellCurve",
    "LinearSwitchedSystem",
    "PAPER_TABLE_I",
    "PwlDwellModel",
    "CriticalInstantResult",
    "DwellMarginResult",
    "ResponseAnalysis",
    "dwell_margin",
    "scale_applications",
    "scale_dwell_model",
    "slot_dwell_margin",
    "SensitivityPoint",
    "simulate_critical_instant",
    "wait_time_matches_fixed_point",
    "StaticSegmentUsage",
    "TimingParameters",
    "UnschedulableError",
    "critical_scale",
    "deadline_sensitivity",
    "scale_deadlines",
    "static_segment_usage",
    "analyze_application",
    "analyze_slot",
    "best_fit_allocation",
    "blocking_term",
    "worst_fit_allocation",
    "characterize_application",
    "characterize_curve",
    "characterize_plant",
    "characterize_response_source",
    "compare_resource_usage",
    "conservative_monotonic",
    "dedicated_allocation",
    "first_fit_allocation",
    "fit_concave_envelope",
    "fit_conservative_monotonic",
    "fit_two_segment",
    "from_timing_parameters",
    "interference_utilization",
    "is_slot_schedulable",
    "make_analyzed",
    "max_wait_closed_form",
    "max_wait_fixed_point",
    "max_wait_lower_bound",
    "optimal_allocation",
    "paper_application",
    "priority_order",
    "simple_monotonic",
    "split_by_priority",
    "two_segment",
]
