"""Figure 1 demonstration — the dynamic resource-allocation state machine.

The paper's Figure 1 is a scheme diagram, not a measurement; this driver
makes it executable.  Two applications share one TT slot; disturbances
are staggered so every transition of the scheme occurs and is logged:

* steady state over ET communication,
* ``||x|| > Eth`` -> TT request,
* immediate grant (slot free) vs waiting behind a busy slot,
* dwell on the slot, and
* release on return to the steady state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.control.controller import design_switched_application
from repro.control.disturbance import OneShotDisturbance
from repro.control.plants import dc_motor_speed, servo_rig
from repro.experiments.reporting import format_table
from repro.flexray.frame import FrameSpec
from repro.sim.cosim import CoSimApplication, CoSimulator
from repro.sim.network import AnalyticNetwork
from repro.sim.runtime import CommState
from repro.sim.trace import SimulationTrace


@dataclass(frozen=True)
class Fig1Result:
    """Transition log of the Figure 1 scheme."""

    trace: SimulationTrace
    transitions: List[Tuple[float, str, str, str]]
    # (time, app, from-state, to-state)

    def saw_waiting(self) -> bool:
        """Whether some application had to wait for a busy slot."""
        return any(new == CommState.WAITING.value for *_ , new in self.transitions)

    def report(self) -> str:
        rows = [list(t) for t in self.transitions]
        return "Figure 1 — scheme transitions\n" + format_table(
            ["time [s]", "app", "from", "to"], rows
        )


def run_fig1(horizon: float = 4.0) -> Fig1Result:
    """Run the two-application demonstration and extract transitions."""
    specs = [
        ("servo", servo_rig(), 1, 5.0, 0.0),
        ("motor", dc_motor_speed(), 2, 6.0, 0.04),
    ]
    apps = []
    for name, plant, frame_id, deadline, disturbance_time in specs:
        switched = design_switched_application(
            name=name,
            plant=plant.model,
            period=plant.period,
            et_delay=plant.period,
            tt_delay=0.0007,
            q=plant.q,
            r=plant.r,
            threshold=plant.threshold,
        )
        apps.append(
            CoSimApplication(
                app=switched,
                dynamics=plant.model,
                disturbance_state=plant.disturbance,
                disturbances=OneShotDisturbance(time=disturbance_time),
                deadline=deadline,
                slot=0,
                frame=FrameSpec(frame_id=frame_id, sender=name),
            )
        )
    trace = CoSimulator(apps, AnalyticNetwork()).run(horizon)
    transitions: List[Tuple[float, str, str, str]] = []
    for name in sorted(trace.apps):
        app_trace = trace[name]
        previous = CommState.ET_STEADY
        for time, state in zip(app_trace.times, app_trace.states):
            if state is not previous:
                transitions.append((time, name, previous.value, state.value))
                previous = state
    transitions.sort(key=lambda t: (t[0], t[1]))
    return Fig1Result(trace=trace, transitions=transitions)


__all__ = ["Fig1Result", "run_fig1"]
