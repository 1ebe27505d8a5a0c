"""TT-slot allocation (paper Section IV, last paragraph, and Section V).

Given analysed applications, pack them onto the minimum number of shared
TT slots such that every application remains schedulable.  The paper
uses a first-fit heuristic over applications sorted by priority
(deadline); finding the optimum is NP-hard.

This module holds the allocation *data model* —
:class:`AllocationResult` and :func:`make_analyzed` — that every
backend in :mod:`repro.solvers` returns and consumes.  Allocators run
through the registry::

    from repro.solvers import allocate, get_allocator

    result = allocate("first-fit", apps, method="closed-form")
    get_allocator("anneal").to_dict()   # capability metadata
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.schedulability import (
    AnalyzedApplication,
    ResponseAnalysis,
)
from repro.core.timing_params import TimingParameters
from repro.core.pwl import from_timing_parameters


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a slot-allocation run.

    Attributes
    ----------
    slots:
        One list of applications per TT slot, in allocation order.
    analyses:
        Final per-application worst-case analysis, keyed by name.
    method:
        Wait-time analysis method used (any registered name, e.g.
        ``closed-form``/``fixed-point``).
    stats:
        Optional JSON-safe backend diagnostics (search nodes, bounds,
        feasibility-cache hit rates); ``None`` for the simple
        heuristics.  Excluded from equality comparison.
    """

    slots: List[List[AnalyzedApplication]]
    analyses: Dict[str, ResponseAnalysis]
    method: str
    stats: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    @property
    def slot_names(self) -> List[List[str]]:
        return [[app.name for app in slot] for slot in self.slots]

    def slot_of(self, name: str) -> int:
        """Zero-based slot index hosting the named application."""
        for index, slot in enumerate(self.slots):
            if any(app.name == name for app in slot):
                return index
        raise KeyError(f"application {name!r} is not allocated")

    def all_schedulable(self) -> bool:
        return all(result.schedulable for result in self.analyses.values())


def make_analyzed(
    apps: Sequence[TimingParameters], shape: str = "non-monotonic"
) -> List[AnalyzedApplication]:
    """Wrap timing parameters with the requested dwell-model shape."""
    return [
        AnalyzedApplication(params=params, dwell_model=from_timing_parameters(params, shape))
        for params in apps
    ]


def compare_resource_usage(
    non_monotonic: AllocationResult, monotonic: AllocationResult
) -> float:
    """Extra TT-slot fraction the monotonic model needs (paper: +67 %)."""
    base = non_monotonic.slot_count
    if base == 0:
        raise ValueError("non-monotonic allocation has no slots")
    return (monotonic.slot_count - base) / base


__all__ = [
    "AllocationResult",
    "compare_resource_usage",
    "make_analyzed",
]
