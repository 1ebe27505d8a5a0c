"""Run the paper's Figure 5 scenario: six automotive control applications
on one FlexRay bus with dynamically shared TT slots.

The applications are designed and characterised from physical plant
models, packed onto the minimum number of TT slots with the paper's
non-monotonic analysis, and co-simulated over a cycle-accurate FlexRay
model with all disturbances hitting at t = 0.

Run with::

    python examples/flexray_cosimulation.py
"""

from repro.experiments import run_fig5, run_simulation_allocation


def main() -> None:
    print("designing and characterising the six case-study applications...")
    comparison = run_simulation_allocation(wait_step=2)
    print()
    print(comparison.report())

    print()
    print("co-simulating over the FlexRay bus (all disturbances at t = 0)...")
    result = run_fig5(wait_step=2)
    print(result.report(plots=True))

    verdict = "ALL DEADLINES MET" if result.all_deadlines_met() else "DEADLINE MISSED"
    print(f"\n=> {verdict}")


if __name__ == "__main__":
    main()
