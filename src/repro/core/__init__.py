"""The paper's primary contribution.

* :mod:`repro.core.timing_params` — application timing parameters and the
  verbatim Table I;
* :mod:`repro.core.switching` — switched closed-loop responses (Eqs. 3-4)
  and dwell/wait curve measurement;
* :mod:`repro.core.pwl` — piecewise-linear dwell models and conservative
  upper-bound fitting (Figure 4);
* :mod:`repro.core.schedulability` — maximum-wait fixed point, closed-form
  bounds, and worst-case response times (Section IV, Eqs. 5-21);
* :mod:`repro.core.allocation` — the slot-allocation result that the
  :mod:`repro.solvers` backends return (Sections IV-V);
* :mod:`repro.core.characterization` — the end-to-end pipeline from plant
  to Table-I-style parameters.
"""

from repro.core.allocation import (
    AllocationResult,
    compare_resource_usage,
    make_analyzed,
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
    "ResponseAnalysis",
    "SensitivityPoint",
    "StaticSegmentUsage",
    "TimingParameters",
    "UnschedulableError",
    "critical_scale",
    "deadline_sensitivity",
    "scale_deadlines",
    "static_segment_usage",
    "analyze_application",
    "analyze_slot",
    "blocking_term",
    "characterize_application",
    "characterize_curve",
    "characterize_plant",
    "characterize_response_source",
    "compare_resource_usage",
    "conservative_monotonic",
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
    "paper_application",
    "priority_order",
    "simple_monotonic",
    "split_by_priority",
    "two_segment",
]
