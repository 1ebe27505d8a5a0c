"""Experiment E5 — Figure 5: co-simulated responses of all applications.

All applications are disturbed at ``t = 0`` (the paper's scenario) and
run over the FlexRay co-simulation with the TT-slot allocation computed
from the non-monotonic analysis.  The reproduction target: every
application returns below its threshold within its deadline, with the
TT/ET interval structure visible in the traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.reporting import format_table
from repro.flexray.params import FlexRayConfig
from repro.sim.trace import SimulationTrace


@dataclass(frozen=True)
class Fig5Result:
    """Trace plus the allocation it ran under."""

    trace: SimulationTrace
    slot_names: List[List[str]]

    def all_deadlines_met(self) -> bool:
        return self.trace.all_deadlines_met()

    def report(self, plots: bool = False) -> str:
        rows = []
        for row in self.trace.summary_rows():
            rows.append(
                [
                    row["app"],
                    row["worst_response"] if row["worst_response"] is not None else "-",
                    row["deadline"],
                    row["deadline_met"],
                    len(row["tt_intervals"]),
                ]
            )
        table = format_table(
            ["app", "response [s]", "deadline [s]", "met", "TT episodes"], rows
        )
        out = [
            "Figure 5 — co-simulated disturbance rejection (all disturbances at t=0)",
            f"slot allocation: {self.slot_names}",
            table,
        ]
        if plots:
            for name in sorted(self.trace.apps):
                out.append("")
                out.append(self.trace[name].ascii_plot())
        return "\n".join(out)


def run_fig5(
    bus_config: Optional[FlexRayConfig] = None,
    horizon: Optional[float] = None,
    use_flexray: bool = True,
    wait_step: int = 2,
    kernel: str = "auto",
) -> Fig5Result:
    """Run the Figure 5 co-simulation.

    Runs the whole chain as the ``fig5-cosim`` pipeline scenario (or
    ``fig5-cosim-analytic``), so the dwell curves come from the shared
    cache and every stage leaves its artifact.

    Parameters
    ----------
    bus_config:
        FlexRay geometry (defaults to the paper's 5 ms / 10-slot bus).
    horizon:
        Simulation length; defaults to 1.2x the largest deadline.
    use_flexray:
        ``True`` runs over the cycle-accurate bus; ``False`` uses the
        analytic worst-case network (faster, deterministic).
    wait_step:
        Dwell-sweep stride in samples.
    kernel:
        Co-simulation kernel: ``"auto"`` (the default) lets eligible
        runs take the batched fast path, ``"event"`` forces the
        reference kernel; traces are bitwise identical either way.
    """
    from repro.pipeline import BusSpec, DesignStudy, get_scenario

    scenario = get_scenario(
        "fig5-cosim" if use_flexray else "fig5-cosim-analytic"
    ).derive(
        wait_step=wait_step,
        horizon=horizon,
        kernel=kernel,
        bus=BusSpec.from_config(bus_config) if bus_config is not None else None,
    )
    study = DesignStudy(scenario).run().raise_for_failure()
    return Fig5Result(
        trace=study.attachments.trace,
        slot_names=study.attachments.allocation.slot_names,
    )


__all__ = ["Fig5Result", "run_fig5"]
