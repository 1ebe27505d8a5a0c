"""Experiment E3 — Table I: application timing parameters.

Paper mode reproduces the table verbatim (the analysis input); simulation
mode regenerates an analogous table from the six plant models via the
full characterisation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.timing_params import PAPER_TABLE_I, TimingParameters
from repro.experiments.casestudy import CaseStudyApplication, simulated_design
from repro.experiments.reporting import format_table

_COLUMNS = ["app", "r [s]", "xi_d [s]", "xi_TT [s]", "xi_ET [s]", "xi_M [s]", "k_p [s]", "xi'_M [s]"]


def _rows(params: List[TimingParameters]) -> List[list]:
    return [
        [
            p.name,
            p.min_inter_arrival,
            p.deadline,
            p.xi_tt,
            p.xi_et,
            p.xi_m,
            p.k_p,
            p.xi_m_mono,
        ]
        for p in params
    ]


@dataclass(frozen=True)
class Table1Result:
    """Both flavours of Table I."""

    paper: List[TimingParameters]
    simulated: Optional[List[CaseStudyApplication]]

    def paper_report(self) -> str:
        return "Table I (paper, verbatim)\n" + format_table(_COLUMNS, _rows(self.paper))

    def simulated_report(self) -> str:
        if self.simulated is None:
            return "(simulation mode not run)"
        params = [app.params for app in self.simulated]
        return "Table I analogue (simulated plants)\n" + format_table(
            _COLUMNS, _rows(params)
        )

    def report(self) -> str:
        return self.paper_report() + "\n\n" + self.simulated_report()


def run_table1(include_simulation: bool = True, wait_step: int = 2) -> Table1Result:
    """Produce Table I in paper mode and (optionally) simulation mode.

    Simulation mode runs the ``sim-table1`` pipeline scenario, sharing
    its memoized dwell measurements with every other consumer.
    """
    simulated = simulated_design(wait_step).case_apps if include_simulation else None
    return Table1Result(paper=list(PAPER_TABLE_I), simulated=simulated)


__all__ = ["Table1Result", "run_table1"]
