"""Sensitivity of the TT-slot demand to design parameters.

The case study fixes one deadline vector; a system integrator wants to
know how close those deadlines sit to a slot-count cliff.  This module
sweeps a multiplicative deadline-tightness factor and reports the number
of TT slots each dwell model needs, plus the utilisation of the static
segment the resulting allocation implies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.allocation import make_analyzed
from repro.core.timing_params import TimingParameters
from repro.solvers import InfeasibleAllocationError, allocate
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SensitivityPoint:
    """Slot demand at one deadline-tightness factor."""

    scale: float
    slots_non_monotonic: Optional[int]
    slots_monotonic: Optional[int]

    @property
    def feasible(self) -> bool:
        return self.slots_non_monotonic is not None


def scale_deadlines(
    params: Sequence[TimingParameters], scale: float
) -> List[TimingParameters]:
    """Multiply every deadline by ``scale`` (clamped to the inter-arrival
    time, which the paper requires as an upper bound)."""
    check_positive(scale, "scale")
    return [
        replace(
            p,
            deadline=min(p.deadline * scale, p.min_inter_arrival),
        )
        for p in params
    ]


def deadline_sensitivity(
    params: Sequence[TimingParameters],
    scales: Sequence[float],
    method: str = "closed-form",
) -> List[SensitivityPoint]:
    """Slot demand across a sweep of deadline-tightness factors.

    A ``None`` slot count means some application misses its deadline even
    on a dedicated TT slot at that tightness.  An unregistered ``method``
    raises :class:`~repro.solvers.UnknownSolverError`.
    """
    points = []
    for scale in scales:
        scaled = scale_deadlines(params, scale)
        counts = {}
        for shape in ("non-monotonic", "conservative-monotonic"):
            try:
                result = allocate(
                    "first-fit", make_analyzed(scaled, shape), method=method
                )
                counts[shape] = result.slot_count
            except InfeasibleAllocationError:
                counts[shape] = None
        points.append(
            SensitivityPoint(
                scale=scale,
                slots_non_monotonic=counts["non-monotonic"],
                slots_monotonic=counts["conservative-monotonic"],
            )
        )
    return points


def critical_scale(
    params: Sequence[TimingParameters],
    shape: str = "non-monotonic",
    lo: float = 0.05,
    hi: float = 1.0,
    tolerance: float = 1e-3,
    method: str = "closed-form",
) -> float:
    """Smallest deadline-tightness factor that remains feasible.

    Bisects on the tightness factor; below the returned value some
    application cannot meet its deadline even alone on a TT slot.  If
    ``lo`` is already feasible there is no transition inside the
    bracket, and ``lo`` is returned.

    Raises
    ------
    ValueError
        If even ``hi`` is infeasible.
    UnknownSolverError
        If ``method`` is not a registered analysis method.
    """

    def feasible(scale: float) -> bool:
        try:
            allocate(
                "first-fit",
                make_analyzed(scale_deadlines(params, scale), shape),
                method=method,
            )
            return True
        except InfeasibleAllocationError:
            return False

    if not feasible(hi):
        raise ValueError(f"deadline scale {hi} is already infeasible")
    if feasible(lo):
        return lo
    low, high = lo, hi
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if feasible(mid):
            high = mid
        else:
            low = mid
    return high


@dataclass(frozen=True)
class StaticSegmentUsage:
    """How much of the FlexRay static segment an allocation consumes."""

    slots_used: int
    slots_available: int

    @property
    def fraction(self) -> float:
        return self.slots_used / self.slots_available

    @property
    def fits(self) -> bool:
        return self.slots_used <= self.slots_available


def static_segment_usage(slot_count: int, static_slots: int) -> StaticSegmentUsage:
    """Check an allocation against the bus's static-segment capacity."""
    if slot_count < 0:
        raise ValueError(f"slot_count must be non-negative, got {slot_count}")
    check_positive(static_slots, "static_slots")
    return StaticSegmentUsage(slots_used=slot_count, slots_available=int(static_slots))


__all__ = [
    "SensitivityPoint",
    "StaticSegmentUsage",
    "critical_scale",
    "deadline_sensitivity",
    "scale_deadlines",
    "static_segment_usage",
]
