"""Design-space exploration: how robust is the slot allocation?

A system integrator wants to know more than one allocation: how close do
the deadlines sit to the slot-count cliffs, which heuristic packs best,
and how many applications could the bus absorb?  This example sweeps the
deadline-tightness factor over the paper's Table I set, compares the
allocation heuristics, finds the critical tightness by bisection, and
checks the result against the FlexRay bus's static-segment capacity.

Run with::

    python examples/design_space_exploration.py
"""

from repro import PAPER_TABLE_I, allocate, make_analyzed, paper_bus_config
from repro.core.sensitivity import (
    critical_scale,
    deadline_sensitivity,
    static_segment_usage,
)
from repro.experiments.reporting import format_table


def main() -> None:
    # 1. Deadline-tightness sweep under both dwell models.
    scales = [0.5, 0.7, 0.85, 1.0, 1.25, 1.5, 2.0, 3.0]
    points = deadline_sensitivity(PAPER_TABLE_I, scales)
    rows = [
        [
            p.scale,
            p.slots_non_monotonic if p.slots_non_monotonic is not None else "infeasible",
            p.slots_monotonic if p.slots_monotonic is not None else "infeasible",
        ]
        for p in points
    ]
    print("Deadline-tightness sweep (scale 1.0 = the paper's deadlines)")
    print(format_table(["scale", "slots (non-monotonic)", "slots (monotonic)"], rows))

    # 2. The critical tightness: below this, some deadline is unreachable.
    critical = critical_scale(PAPER_TABLE_I)
    print(f"\ncritical tightness factor: {critical:.3f} "
          "(deadlines any tighter are infeasible even with dedicated slots)")

    # 3. Heuristic comparison at the paper's deadlines.
    apps = make_analyzed(PAPER_TABLE_I, "non-monotonic")
    heuristics = {
        "first-fit (paper)": "first-fit",
        "best-fit": "best-fit",
        "worst-fit": "worst-fit",
        "exhaustive optimum": "optimal",
    }
    rows = []
    for label, name in heuristics.items():
        result = allocate(name, apps)
        rows.append([label, result.slot_count,
                     " | ".join(",".join(s) for s in result.slot_names)])
    print("\nHeuristic comparison")
    print(format_table(["heuristic", "slots", "contents"], rows))

    # 4. Does it fit the paper's bus (10 static slots)?
    bus = paper_bus_config()
    usage = static_segment_usage(
        allocate("first-fit", apps).slot_count, bus.static_slots
    )
    print(
        f"\nstatic-segment usage: {usage.slots_used}/{usage.slots_available} slots "
        f"({100 * usage.fraction:.0f}%) -> fits: {usage.fits}"
    )


if __name__ == "__main__":
    main()
