"""Test oracle: critical-instant simulation of a shared TT slot (Sec. IV).

The fixed-point equation (Eq. 5) encodes a specific worst-case scenario:
at the moment application ``Ci`` requests the slot, the lower-priority
application with the largest dwell has *just* seized it (non-preemption),
and from then on every higher-priority application re-requests as often
as its minimum inter-arrival time allows, each occupying the slot for its
maximum dwell ``xi_M``.

This module *simulates that exact scenario* on a continuous timeline and
measures how long ``Ci`` actually waits.  It provides an independent
check of the analysis: the simulated wait must equal the least fixed
point of Eq. 5 (and therefore sit within the closed-form bounds of
Eqs. 20-21).  :mod:`test_critical_instant` drives this comparison over
randomised application sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.schedulability import AnalyzedApplication, blocking_term
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CriticalInstantResult:
    """Outcome of one critical-instant simulation.

    Attributes
    ----------
    wait_time:
        Time from the subject's request until it seizes the slot.
    busy_intervals:
        The slot occupancy ``(start, end, name)`` triples before the
        subject was served, in chronological order.
    """

    wait_time: float
    busy_intervals: List[Tuple[float, float, str]]


def simulate_critical_instant(
    subject: AnalyzedApplication,
    higher_priority: Sequence[AnalyzedApplication],
    lower_priority: Sequence[AnalyzedApplication],
    max_horizon: float = 1e6,
) -> CriticalInstantResult:
    """Simulate the Eq. 5 worst case and measure the subject's wait.

    The subject requests at ``t = 0``.  The worst lower-priority blocker
    occupies the slot over ``[0, a)``; every higher-priority application
    releases requests at ``t = 0, r_j, 2 r_j, ...`` and holds the slot
    for ``xi_M_j`` when served.  Requests are served non-preemptively in
    priority order whenever the slot frees up.

    Raises
    ------
    RuntimeError
        If the subject is not served before ``max_horizon`` (the slot is
        overloaded, ``m >= 1``).
    """
    check_positive(max_horizon, "max_horizon")
    blocking = blocking_term(lower_priority)
    busy: List[Tuple[float, float, str]] = []
    time = 0.0
    if blocking > 0.0:
        blocker = max(lower_priority, key=lambda app: app.max_dwell)
        busy.append((0.0, blocking, blocker.name))
        time = blocking

    # Pending higher-priority requests as a heap of
    # (priority_key, release_time, index) with per-app next-release state.
    next_release = {app.name: 0.0 for app in higher_priority}
    by_priority = sorted(
        higher_priority, key=lambda app: (app.deadline, app.name)
    )

    while True:
        if time > max_horizon:
            raise RuntimeError(
                f"subject not served within {max_horizon}s; slot overloaded"
            )
        # Higher-priority requests released *strictly* before `time` are
        # waiting; a request landing exactly when the slot frees loses
        # the tie to the subject (this matches the ceiling semantics of
        # Eq. 5, whose job count is the number of releases in
        # [0, kwait)).  Serve the highest-priority waiter; non-preemptive,
        # so the choice happens only when the slot frees.
        ready = [
            app
            for app in by_priority
            if next_release[app.name] < time - 1e-12
            or (time == 0.0 and next_release[app.name] == 0.0)
        ]
        if not ready:
            # The slot is free and no higher-priority work is pending:
            # the subject finally seizes the slot.
            return CriticalInstantResult(wait_time=time, busy_intervals=busy)
        served = ready[0]  # earliest deadline among the ready set
        start = time
        end = start + served.max_dwell
        busy.append((start, end, served.name))
        next_release[served.name] = (
            next_release[served.name] + served.min_inter_arrival
        )
        time = end


def wait_time_matches_fixed_point(
    subject: AnalyzedApplication,
    higher_priority: Sequence[AnalyzedApplication],
    lower_priority: Sequence[AnalyzedApplication],
    tolerance: float = 1e-9,
) -> bool:
    """Whether simulation and analysis agree on the maximum wait time."""
    from repro.core.schedulability import max_wait_fixed_point

    simulated = simulate_critical_instant(
        subject, higher_priority, lower_priority
    ).wait_time
    analytical = max_wait_fixed_point(lower_priority, higher_priority)
    return abs(simulated - analytical) <= tolerance * max(1.0, analytical)


__all__ = [
    "CriticalInstantResult",
    "simulate_critical_instant",
    "wait_time_matches_fixed_point",
]
