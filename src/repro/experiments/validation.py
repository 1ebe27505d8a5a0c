"""Experiments E9-E10 — soundness validation and the pure-ET motivation.

E9 (**bound validation**): the worst-case response times certified by the
Section IV analysis are upper bounds; no randomised co-simulation run may
ever exceed them.  We fire sporadic disturbances (random offsets and
gaps, honouring each application's minimum inter-arrival time) at the
case-study roster over long horizons and compare every measured response
against the certified bound.

E10 (**pure-ET baseline**): the paper's premise is that ET communication
alone cannot meet all deadlines while dedicating a TT slot to every
application wastes the scarce static segment.  This experiment runs the
same roster (a) purely over ET and (b) with the dynamically shared TT
slots, showing missed deadlines in (a) and none in (b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.control.disturbance import OneShotDisturbance, SporadicDisturbance
from repro.experiments.casestudy import CaseStudyApplication, simulation_applications
from repro.experiments.reporting import format_table
from repro.flexray.frame import FrameSpec
from repro.sim.cosim import CoSimApplication, CoSimulator
from repro.sim.network import AnalyticNetwork
from repro.solvers import allocate


def _cosim_apps(
    applications: List[CaseStudyApplication],
    slot_of: Dict[str, int],
    seed: Optional[int],
    horizon: float,
) -> List[CoSimApplication]:
    apps = []
    rng = np.random.default_rng(seed) if seed is not None else None
    for index, case_app in enumerate(applications):
        if rng is None:
            disturbances = OneShotDisturbance(time=0.0)
        else:
            r = case_app.params.min_inter_arrival
            disturbances = SporadicDisturbance(
                min_inter_arrival=r,
                mean_extra_gap=0.5 * r,
                offset=float(rng.uniform(0.0, min(r, horizon / 4))),
                seed=int(rng.integers(0, 2**31)),
            )
        apps.append(
            CoSimApplication(
                app=case_app.app,
                dynamics=case_app.plant.model,
                disturbance_state=case_app.plant.disturbance,
                disturbances=disturbances,
                deadline=case_app.params.deadline,
                slot=slot_of[case_app.name],
                frame=FrameSpec(frame_id=index + 1, sender=case_app.name),
            )
        )
    return apps


@dataclass(frozen=True)
class ValidationResult:
    """E9 outcome: measured-vs-certified response times per application."""

    rows: List[Tuple[str, float, float]]  # (app, worst measured, certified bound)
    runs: int
    violations: int

    def sound(self) -> bool:
        return self.violations == 0

    def report(self) -> str:
        table = format_table(
            ["app", "worst measured [s]", "certified bound [s]"],
            [list(row) for row in self.rows],
        )
        verdict = "SOUND" if self.sound() else f"{self.violations} VIOLATIONS"
        return (
            f"Bound validation over {self.runs} randomised runs\n{table}\n"
            f"analysis bounds: {verdict}"
        )


def run_bound_validation(
    applications: Optional[List[CaseStudyApplication]] = None,
    seeds: int = 5,
    horizon: float = 150.0,
    wait_step: int = 4,
) -> ValidationResult:
    """E9: no simulated response may exceed its certified bound."""
    if applications is None:
        applications = simulation_applications(wait_step=wait_step)
    allocation = allocate(
        "first-fit", [app.analyzed("non-monotonic") for app in applications]
    )
    slot_of = {app.name: allocation.slot_of(app.name) for app in applications}
    bounds = {
        name: analysis.worst_response
        for name, analysis in allocation.analyses.items()
    }
    worst: Dict[str, float] = {app.name: 0.0 for app in applications}
    violations = 0
    for seed in range(seeds):
        cosim_apps = _cosim_apps(applications, slot_of, seed=seed, horizon=horizon)
        trace = CoSimulator(cosim_apps, AnalyticNetwork()).run(horizon)
        for app in applications:
            responses = trace[app.name].response_times
            if not responses:
                continue
            measured = max(responses)
            worst[app.name] = max(worst[app.name], measured)
            if measured > bounds[app.name] + 1e-9:
                violations += 1
    rows = [
        (app.name, worst[app.name], bounds[app.name]) for app in applications
    ]
    return ValidationResult(rows=rows, runs=seeds, violations=violations)


@dataclass(frozen=True)
class PureEtResult:
    """E10 outcome: deadline performance with and without the TT slots."""

    pure_et_misses: List[str]
    hybrid_misses: List[str]
    rows: List[Tuple[str, float, float, float]]
    # (app, pure-ET response, hybrid response, deadline)

    def report(self) -> str:
        table = format_table(
            ["app", "pure-ET response [s]", "hybrid response [s]", "deadline [s]"],
            [list(row) for row in self.rows],
        )
        return (
            "Pure-ET baseline vs dynamic TT sharing (disturbances at t=0)\n"
            f"{table}\n"
            f"pure-ET deadline misses : {self.pure_et_misses or 'none'}\n"
            f"hybrid deadline misses  : {self.hybrid_misses or 'none'}"
        )


def run_pure_et_baseline(
    applications: Optional[List[CaseStudyApplication]] = None,
    wait_step: int = 4,
    horizon: Optional[float] = None,
) -> PureEtResult:
    """E10: ET alone misses deadlines that the hybrid scheme meets."""
    if applications is None:
        applications = simulation_applications(wait_step=wait_step)
    allocation = allocate(
        "first-fit", [app.analyzed("non-monotonic") for app in applications]
    )
    slot_of = {app.name: allocation.slot_of(app.name) for app in applications}
    if horizon is None:
        horizon = 2.0 * max(app.params.xi_et for app in applications)

    responses: Dict[bool, Dict[str, float]] = {}
    for tt_allowed in (False, True):
        cosim_apps = _cosim_apps(applications, slot_of, seed=None, horizon=horizon)
        sim = CoSimulator(cosim_apps, AnalyticNetwork(), tt_allowed=tt_allowed)
        trace = sim.run(horizon)
        responses[tt_allowed] = {
            app.name: (
                max(trace[app.name].response_times)
                if trace[app.name].response_times
                else float("inf")
            )
            for app in applications
        }
    rows = []
    pure_misses, hybrid_misses = [], []
    for app in applications:
        deadline = app.params.deadline
        pure = responses[False][app.name]
        hybrid = responses[True][app.name]
        rows.append((app.name, pure, hybrid, deadline))
        if pure > deadline + 1e-9:
            pure_misses.append(app.name)
        if hybrid > deadline + 1e-9:
            hybrid_misses.append(app.name)
    return PureEtResult(
        pure_et_misses=pure_misses, hybrid_misses=hybrid_misses, rows=rows
    )


__all__ = [
    "PureEtResult",
    "ValidationResult",
    "run_bound_validation",
    "run_pure_et_baseline",
]
