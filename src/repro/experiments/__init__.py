"""Experiment drivers: one module per paper artefact plus ablations.

* :mod:`repro.experiments.fig3` — E1, the dwell/wait measurement;
* :mod:`repro.experiments.fig4` — E2, the PWL model comparison;
* :mod:`repro.experiments.table1` — E3, timing parameters;
* :mod:`repro.experiments.allocation` — E4, the slot-allocation case study;
* :mod:`repro.experiments.fig5` — E5, the six-application co-simulation;
* :mod:`repro.experiments.ablations` — E6-E8, E11 (jitter) and E12
  (kernel).
"""

from repro.experiments.allocation import (
    AllocationComparison,
    run_paper_allocation,
    run_simulation_allocation,
)
from repro.experiments.ablations import (
    run_fixed_point_ablation,
    run_jitter_ablation,
    run_kernel_ablation,
    run_segment_ablation,
    run_threshold_sweep,
    traces_bitwise_equal,
)
from repro.experiments.casestudy import (
    MULTIRATE_CASE_STUDY,
    SIMULATION_CASE_STUDY,
    CaseStudyApplication,
    design_case_study_application,
    simulation_applications,
)
from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.validation import (
    PureEtResult,
    ValidationResult,
    run_bound_validation,
    run_pure_et_baseline,
)
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.reporting import format_series, format_table
from repro.experiments.table1 import Table1Result, run_table1

__all__ = [
    "AllocationComparison",
    "CaseStudyApplication",
    "Fig1Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "PureEtResult",
    "run_fig1",
    "ValidationResult",
    "run_bound_validation",
    "run_pure_et_baseline",
    "MULTIRATE_CASE_STUDY",
    "SIMULATION_CASE_STUDY",
    "Table1Result",
    "design_case_study_application",
    "format_series",
    "format_table",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fixed_point_ablation",
    "run_jitter_ablation",
    "run_kernel_ablation",
    "run_paper_allocation",
    "run_segment_ablation",
    "run_simulation_allocation",
    "run_table1",
    "run_threshold_sweep",
    "traces_bitwise_equal",
]
