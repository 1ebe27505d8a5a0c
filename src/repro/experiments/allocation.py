"""Experiment E4 — Section V slot allocation.

Paper mode: the Table I applications are packed with the first-fit
heuristic under both dwell-model shapes; the paper's result is **3 TT
slots** with the non-monotonic model against **5** with the conservative
monotonic one (+67 % communication resources).

Simulation mode: the same comparison on the six characterised plants,
plus the dedicated-slot baseline and the exhaustive optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.allocation import AllocationResult, compare_resource_usage
from repro.experiments.reporting import format_table


@dataclass(frozen=True)
class AllocationComparison:
    """Slot counts under the different dwell models for one app set."""

    label: str
    non_monotonic: AllocationResult
    monotonic: AllocationResult
    dedicated: AllocationResult
    optimal: Optional[AllocationResult] = None

    @property
    def extra_resource_fraction(self) -> float:
        return compare_resource_usage(self.non_monotonic, self.monotonic)

    def rows(self) -> List[list]:
        rows = [
            ["non-monotonic (paper)", self.non_monotonic.slot_count,
             " | ".join(",".join(s) for s in self.non_monotonic.slot_names)],
            ["conservative monotonic", self.monotonic.slot_count,
             " | ".join(",".join(s) for s in self.monotonic.slot_names)],
            ["dedicated (1 slot/app)", self.dedicated.slot_count, "-"],
        ]
        if self.optimal is not None:
            rows.append(
                ["exhaustive optimum", self.optimal.slot_count,
                 " | ".join(",".join(s) for s in self.optimal.slot_names)]
            )
        return rows

    def report(self) -> str:
        table = format_table(["model", "TT slots", "slot contents"], self.rows())
        return (
            f"Slot allocation — {self.label}\n{table}\n"
            f"monotonic needs {100 * self.extra_resource_fraction:.0f}% more TT slots"
        )


def _compare(base, method: str, label: str) -> AllocationComparison:
    """Run the four scenario variants an :class:`AllocationComparison`
    needs through :func:`repro.pipeline.run_many`.

    Both dwell-model shapes use ``method``; the dedicated and optimal
    baselines always use the closed-form analysis (mirroring the paper's
    Section V presentation).
    """
    from repro.pipeline import run_many

    studies = run_many(
        [
            base.derive(name=f"{base.name}/non-monotonic", method=method),
            base.derive(
                name=f"{base.name}/monotonic",
                method=method,
                dwell_shape="conservative-monotonic",
            ),
            base.derive(name=f"{base.name}/dedicated", allocator="dedicated"),
            base.derive(name=f"{base.name}/optimal", allocator="optimal"),
        ]
    )
    non_monotonic, monotonic, dedicated, optimal = (
        study.raise_for_failure().attachments.allocation for study in studies
    )
    return AllocationComparison(
        label=label,
        non_monotonic=non_monotonic,
        monotonic=monotonic,
        dedicated=dedicated,
        optimal=optimal,
    )


def run_paper_allocation(method: str = "closed-form") -> AllocationComparison:
    """Section V, verbatim: expect 3 vs 5 slots (+67 %)."""
    from repro.pipeline import get_scenario

    return _compare(get_scenario("paper-table1"), method, "paper Table I")


def run_simulation_allocation(
    method: str = "closed-form", wait_step: int = 2
) -> AllocationComparison:
    """The same comparison on the simulated plant roster, whose four
    ``sim-table1`` studies share one measurement of each dwell curve."""
    from repro.pipeline import get_scenario

    base = get_scenario("sim-table1").derive(wait_step=wait_step)
    return _compare(base, method, "simulated plants")


__all__ = [
    "AllocationComparison",
    "run_paper_allocation",
    "run_simulation_allocation",
]
