"""Simulation traces and deadline reporting (Figure 5 data).

The co-simulation records, for every application and sampling instant,
the plant-state norm, the communication state and the sensor-to-actuator
delay actually experienced.  Helpers extract the TT/ET interval structure
shown as colour bands in the paper's Figure 5 and render an ASCII
version of the plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.runtime import CommState


@dataclass
class AppTrace:
    """Time series of one application over a co-simulation run."""

    name: str
    threshold: float
    deadline: float
    times: List[float] = field(default_factory=list)
    norms: List[float] = field(default_factory=list)
    states: List[CommState] = field(default_factory=list)
    delays: List[float] = field(default_factory=list)
    response_times: List[float] = field(default_factory=list)

    def append(self, time: float, norm: float, state: CommState, delay: float) -> None:
        self.times.append(time)
        self.norms.append(norm)
        self.states.append(state)
        self.delays.append(delay)

    def tt_intervals(self) -> List[Tuple[float, float]]:
        """Closed time intervals during which the app held a TT slot.

        These are the blue regions of the paper's Figure 5.
        """
        intervals: List[Tuple[float, float]] = []
        start: Optional[float] = None
        for time, state in zip(self.times, self.states):
            holding = state is CommState.TT_HOLDING
            if holding and start is None:
                start = time
            elif not holding and start is not None:
                intervals.append((start, time))
                start = None
        if start is not None:
            intervals.append((start, self.times[-1]))
        return intervals

    def settling_time(self) -> Optional[float]:
        """First time after which the norm stays at or below threshold."""
        norms = np.asarray(self.norms)
        above = np.flatnonzero(norms > self.threshold)
        if above.size == 0:
            return self.times[0] if self.times else None
        if above[-1] == norms.size - 1:
            return None
        return self.times[int(above[-1]) + 1]

    def deadline_met(self) -> bool:
        """Whether every completed disturbance met the deadline."""
        return all(r <= self.deadline + 1e-9 for r in self.response_times)

    def max_delay(self) -> float:
        return max(self.delays) if self.delays else 0.0

    def qoc(self) -> float:
        """Quality-of-control cost: integral of ``||x||^2`` over the run.

        Left-rectangle quadrature on the recorded sampling grid (exact
        for the piecewise-constant inter-sample norm the trace stores).
        Lower is better; multi-rate traces integrate each application on
        its own grid, so costs stay comparable across periods.
        """
        if len(self.times) < 2:
            return 0.0
        times = np.asarray(self.times)
        norms = np.asarray(self.norms)
        return float(np.sum(norms[:-1] ** 2 * np.diff(times)))

    def to_csv(self) -> str:
        """Render the trace as CSV (time, norm, state, delay) for export."""
        lines = ["time,norm,state,delay"]
        for time, norm, state, delay in zip(
            self.times, self.norms, self.states, self.delays
        ):
            lines.append(f"{time:.6f},{norm:.9g},{state.value},{delay:.6f}")
        return "\n".join(lines) + "\n"

    def ascii_plot(self, width: int = 72, height: int = 12) -> str:
        """Render the norm trajectory with TT-interval markers.

        ``#`` samples are transmitted over TT, ``*`` over ET; the ``-``
        row marks the threshold.
        """
        if not self.times:
            return "(empty trace)"
        norms = np.asarray(self.norms)
        times = np.asarray(self.times)
        top = max(float(norms.max()), self.threshold * 1.5, 1e-9)
        columns = np.clip(
            ((times - times[0]) / max(times[-1] - times[0], 1e-12) * (width - 1)).astype(int),
            0,
            width - 1,
        )
        grid = [[" "] * width for _ in range(height)]
        threshold_row = height - 1 - int(self.threshold / top * (height - 1))
        for col in range(width):
            grid[threshold_row][col] = "-"
        for col, norm, state in zip(columns, norms, self.states):
            row = height - 1 - int(min(norm, top) / top * (height - 1))
            grid[row][col] = "#" if state is CommState.TT_HOLDING else "*"
        header = (
            f"{self.name}: ||x|| vs t  (deadline {self.deadline}s, "
            f"threshold {self.threshold}, # = TT, * = ET)"
        )
        return "\n".join([header] + ["".join(row) for row in grid])


@dataclass
class SimulationTrace:
    """All application traces of one co-simulation run."""

    apps: Dict[str, AppTrace] = field(default_factory=dict)
    horizon: float = 0.0

    def add(self, trace: AppTrace) -> None:
        if trace.name in self.apps:
            raise ValueError(f"duplicate trace for application {trace.name!r}")
        self.apps[trace.name] = trace

    def __getitem__(self, name: str) -> AppTrace:
        return self.apps[name]

    def all_deadlines_met(self) -> bool:
        return all(trace.deadline_met() for trace in self.apps.values())

    def qoc(self) -> float:
        """Fleet QoC: mean of the per-application quadratic costs."""
        if not self.apps:
            return 0.0
        return float(
            np.mean([trace.qoc() for trace in self.apps.values()])
        )

    def summary_rows(self) -> List[Dict[str, object]]:
        """One summary dict per application (for reports and benches)."""
        rows = []
        for name in sorted(self.apps):
            trace = self.apps[name]
            responses = trace.response_times
            rows.append(
                {
                    "app": name,
                    "responses": list(responses),
                    "worst_response": max(responses) if responses else None,
                    "deadline": trace.deadline,
                    "deadline_met": trace.deadline_met(),
                    "tt_intervals": trace.tt_intervals(),
                    "max_delay": trace.max_delay(),
                }
            )
        return rows


__all__ = ["AppTrace", "SimulationTrace"]
