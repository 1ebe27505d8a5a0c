"""The classic packing backends (paper Sections IV-V), registered.

These are the five strategies the pipeline has always shipped — the
paper's first-fit heuristic, the best-/worst-fit variants, the
dedicated-slot baseline, and the exhaustive set-partition optimum — now
implemented against the solver API.  Call them by name through
:func:`repro.solvers.allocate`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.allocation import AllocationResult
from repro.core.schedulability import AnalyzedApplication, is_slot_schedulable
from repro.core.timing_params import priority_order
from repro.solvers.common import finalize_slots, require_fits_alone
from repro.solvers.registry import register_allocator
from repro.solvers.types import InfeasibleAllocationError, InstanceTooLargeError


@register_allocator(
    "first-fit",
    summary="paper Sec. V heuristic: earliest feasible slot, priority order",
    optimal=False,
    complexity="O(n^2) slot analyses",
)
def first_fit(
    apps: Sequence[AnalyzedApplication],
    method: str = "closed-form",
    max_slots: Optional[int] = None,
) -> AllocationResult:
    """The paper's first-fit heuristic.

    Applications are taken in decreasing priority (shortest deadline
    first).  Each is tentatively added to the earliest existing slot; if
    the whole slot (including previously placed applications, whose
    schedulability the newcomer can break) remains schedulable it stays,
    otherwise the next slot is tried, and a fresh slot is opened when
    none fits.

    Parameters
    ----------
    apps:
        Applications to place.
    method:
        Wait-time analysis method (any registered name).
    max_slots:
        Optional cap; exceeding it raises
        :class:`~repro.solvers.types.InfeasibleAllocationError` (the
        paper assumes the result fits the bus's ``m`` static slots).
    """
    slots: List[List[AnalyzedApplication]] = []
    for app in priority_order(apps):
        placed = False
        for slot in slots:
            candidate = slot + [app]
            if is_slot_schedulable(candidate, method=method):
                slot.append(app)
                placed = True
                break
        if not placed:
            require_fits_alone(app, method)
            slots.append([app])
            if max_slots is not None and len(slots) > max_slots:
                raise InfeasibleAllocationError(
                    f"allocation needs more than the available {max_slots} TT slots"
                )
    return finalize_slots(slots, method)


def _fit_by(
    apps: Sequence[AnalyzedApplication],
    method: str,
    choose: Callable[[List[List[AnalyzedApplication]]], List[AnalyzedApplication]],
) -> AllocationResult:
    """Shared packing loop for the choose-a-feasible-slot heuristics."""
    slots: List[List[AnalyzedApplication]] = []
    for app in priority_order(apps):
        candidates = [
            slot
            for slot in slots
            if is_slot_schedulable(slot + [app], method=method)
        ]
        if candidates:
            choose(candidates).append(app)
            continue
        require_fits_alone(app, method)
        slots.append([app])
    return finalize_slots(slots, method)


@register_allocator(
    "best-fit",
    summary="place each app on the fullest still-schedulable slot",
    optimal=False,
    complexity="O(n^2) slot analyses",
)
def best_fit(
    apps: Sequence[AnalyzedApplication],
    method: str = "closed-form",
) -> AllocationResult:
    """Best-fit variant: place each application on the *fullest* slot
    (most applications) that still keeps everyone schedulable."""
    return _fit_by(apps, method, lambda candidates: max(candidates, key=len))


@register_allocator(
    "worst-fit",
    summary="place each app on the emptiest feasible slot (spreads slack)",
    optimal=False,
    complexity="O(n^2) slot analyses",
)
def worst_fit(
    apps: Sequence[AnalyzedApplication],
    method: str = "closed-form",
) -> AllocationResult:
    """Worst-fit variant: place each application on the *emptiest*
    feasible slot, spreading load across slots."""
    return _fit_by(apps, method, lambda candidates: min(candidates, key=len))


@register_allocator(
    "dedicated",
    summary="baseline: one dedicated TT slot per application (no sharing)",
    optimal=False,
    complexity="O(n) slot analyses",
)
def dedicated(
    apps: Sequence[AnalyzedApplication], method: str = "closed-form"
) -> AllocationResult:
    """Baseline: one dedicated TT slot per application (no sharing)."""
    slots = [[app] for app in priority_order(apps)]
    return finalize_slots(slots, method)


@register_allocator(
    "optimal",
    summary="exhaustive set-partition minimum (Bell-number blow-up)",
    optimal=True,
    complexity="Bell(n) partitions",
    max_apps=10,
)
def optimal(
    apps: Sequence[AnalyzedApplication],
    method: str = "closed-form",
    max_apps: int = 10,
) -> AllocationResult:
    """Exhaustive minimum-slot partition search (small instances only).

    Enumerates set partitions in order of increasing block count and
    returns the first fully schedulable one.  Complexity is the Bell
    number of ``len(apps)``; refuse anything beyond ``max_apps`` — for
    larger instances use the ``branch-and-bound`` backend, which proves
    the same optimum with schedulability pruning.
    """
    ordered = list(priority_order(apps))
    if len(ordered) > max_apps:
        raise InstanceTooLargeError(
            f"optimal allocation is exponential; refusing {len(ordered)} apps "
            f"(max_apps={max_apps}); use the 'branch-and-bound' allocator "
            "for larger exact solves"
        )
    for count in range(1, len(ordered) + 1):
        for partition in _partitions_into(ordered, count):
            if all(is_slot_schedulable(slot, method=method) for slot in partition):
                return finalize_slots([list(slot) for slot in partition], method)
    # Dedicated slots are always a valid partition if each app alone is
    # schedulable; reaching here means some app misses even alone.
    raise InfeasibleAllocationError(
        "no schedulable allocation exists (some deadline < xi_tt?)"
    )


def _partitions_into(items: List, blocks: int):
    """Yield all partitions of ``items`` into exactly ``blocks`` groups."""
    if blocks == 1:
        yield [items]
        return
    if blocks == len(items):
        yield [[item] for item in items]
        return
    if blocks > len(items):
        return
    first, rest = items[0], items[1:]
    # Either `first` joins an existing block of a (blocks)-partition of rest...
    for partition in _partitions_into(rest, blocks):
        for index in range(len(partition)):
            yield (
                partition[:index]
                + [[first] + partition[index]]
                + partition[index + 1:]
            )
    # ...or forms its own block atop a (blocks-1)-partition of rest.
    for partition in _partitions_into(rest, blocks - 1):
        yield [[first]] + partition


__all__ = ["best_fit", "dedicated", "first_fit", "optimal", "worst_fit"]
