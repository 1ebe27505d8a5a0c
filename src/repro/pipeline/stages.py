"""Named, introspectable stages of the design chain.

The paper's workflow is a fixed pipeline::

    characterize -> model -> analyze -> allocate -> cosim

Each stage function consumes a mutable :class:`StudyContext` (scenario +
rich upstream objects) and returns a JSON-safe artifact dict; the runner
wraps that into a :class:`StageRecord` with status and timing.  The rich
objects (curves, models, allocations, traces) stay on the context so
programmatic callers — the legacy experiment drivers among them — can
reuse them without re-parsing artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional

from repro.control.disturbance import OneShotDisturbance, SporadicDisturbance
from repro.core.allocation import AllocationResult
from repro.core.characterization import characterize_curve
from repro.core.pwl import from_timing_parameters
from repro.core.schedulability import AnalyzedApplication, is_slot_schedulable
from repro.core.sensitivity import static_segment_usage
from repro.core.timing_params import PAPER_TABLE_I, TimingParameters
from repro.flexray.frame import FrameSpec
from repro.flexray.params import paper_bus_config
from repro.pipeline.cache import DwellCurveCache
from repro.pipeline.scenario import Scenario
from repro.pipeline.serialize import to_jsonable
from repro.sim.cosim import CoSimApplication, CoSimulator
from repro.sim.network import build_network
from repro.sim.trace import SimulationTrace

#: Canonical stage order.
STAGE_ORDER = ("characterize", "model", "analyze", "allocate", "cosim")

#: Servo-rig deadline/inter-arrival defaults (the Figure 3 setup).
SERVO_DEADLINE = 6.0
SERVO_MIN_INTER_ARRIVAL = 6.0


@dataclass(frozen=True)
class StageRecord:
    """Outcome of one pipeline stage.

    ``artifact`` holds only JSON-safe containers so a
    :class:`~repro.pipeline.result.StudyResult` round-trips losslessly.
    """

    name: str
    status: str  # "ok" | "failed" | "skipped"
    elapsed: float
    artifact: Dict[str, Any]
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "elapsed": self.elapsed,
            "artifact": self.artifact,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StageRecord":
        return cls(
            name=data["name"],
            status=data["status"],
            elapsed=data["elapsed"],
            artifact=data["artifact"],
            detail=data.get("detail", ""),
        )


class StageSkipped(Exception):
    """Raised by a stage that does not apply to the scenario."""


@dataclass
class StudyContext:
    """Mutable carrier of rich objects flowing between stages."""

    scenario: Scenario
    cache: DwellCurveCache
    params: List[TimingParameters] = field(default_factory=list)
    case_apps: Optional[list] = None  # List[CaseStudyApplication] (sim/servo)
    analyzed: List[AnalyzedApplication] = field(default_factory=list)
    allocation: Optional[AllocationResult] = None
    trace: Optional[SimulationTrace] = None


def _scaled_deadline(deadline: float, min_inter_arrival: float, scale: float) -> float:
    """Apply the deadline-tightness factor, clamped to the inter-arrival
    time (the paper requires deadline <= r)."""
    return min(deadline * scale, min_inter_arrival)


def _params_row(p: TimingParameters) -> Dict[str, Any]:
    return {
        "name": p.name,
        "min_inter_arrival": p.min_inter_arrival,
        "deadline": p.deadline,
        "xi_tt": p.xi_tt,
        "xi_et": p.xi_et,
        "xi_m": p.xi_m,
        "k_p": p.k_p,
        "xi_m_mono": p.xi_m_mono,
    }


class _Measured(NamedTuple):
    """One measured application of a scenario's roster."""

    name: str
    measurement: Any  # MeasuredApplication | ServoMeasurement
    hit: bool
    min_inter_arrival: float
    deadline: float  # before the scenario's deadline_scale


def _measure(scenario: Scenario, cache: DwellCurveCache) -> List[_Measured]:
    """Look up every measured application of ``scenario`` in ``cache``.

    The one place a roster maps to dwell-cache keys; a miss measures.
    """
    if scenario.source == "servo":
        _select_named(["servo-rig"], scenario.apps, lambda n: n, "application")
        measured, hit = cache.servo_measurement_info(wait_step=scenario.wait_step)
        return [
            _Measured(
                "servo-rig", measured, hit, SERVO_MIN_INTER_ARRIVAL, SERVO_DEADLINE
            )
        ]
    from repro.experiments.casestudy import MULTIRATE_CASE_STUDY, SIMULATION_CASE_STUDY

    rosters = {"simulation": SIMULATION_CASE_STUDY, "multirate": MULTIRATE_CASE_STUDY}
    if scenario.source not in rosters:
        raise ValueError(f"{scenario.source!r} scenarios measure no dwell curves")
    roster = _select_named(
        list(rosters[scenario.source]), scenario.apps, lambda e: e[0], "plant"
    )
    return [
        _Measured(
            name,
            *cache.measurement_info(name, detuning, scenario.wait_step),
            inter_arrival,
            deadline,
        )
        for name, detuning, inter_arrival, deadline in roster
    ]


def _curves(measured: List[_Measured]) -> Dict[str, Any]:
    # fresh lists per call: results must not share mutable artifacts
    return {
        m.name: {
            "waits": to_jsonable(m.measurement.curve.waits),
            "dwells": to_jsonable(m.measurement.curve.dwells),
            "xi_et": m.measurement.curve.xi_et,
        }
        for m in measured
    }


def measured_curves(scenario: Scenario, cache: DwellCurveCache) -> Dict[str, Any]:
    """The characterize artifact's ``curves`` entry of a simulation,
    multirate or servo scenario, read from ``cache``.

    The fabric coordinator rebuilds kept results' curves with it, since
    workers send them as ``null``.  Paper scenarios have no such entry
    and raise :class:`ValueError`.
    """
    return _curves(_measure(scenario, cache))


def stage_characterize(ctx: StudyContext) -> Dict[str, Any]:
    """Plant models -> dwell characterisation -> timing parameters."""
    scenario = ctx.scenario
    artifact: Dict[str, Any] = {
        "source": scenario.source,
        "deadline_scale": scenario.deadline_scale,
    }
    if scenario.source == "paper":
        rows = _select_named(
            list(PAPER_TABLE_I), scenario.apps, lambda p: p.name, "application"
        )
        from repro.core.sensitivity import scale_deadlines

        ctx.params = scale_deadlines(rows, scenario.deadline_scale)
        ctx.case_apps = None
    else:
        from repro.experiments.casestudy import CaseStudyApplication

        measured = _measure(scenario, ctx.cache)
        ctx.case_apps = []
        for m in measured:
            characterization = characterize_curve(
                name=m.name,
                curve=m.measurement.curve,
                deadline=_scaled_deadline(
                    m.deadline, m.min_inter_arrival, scenario.deadline_scale
                ),
                min_inter_arrival=m.min_inter_arrival,
            )
            ctx.case_apps.append(
                CaseStudyApplication(
                    # the servo rig's measurement has no plant model
                    plant=getattr(m.measurement, "plant", None),
                    app=getattr(m.measurement, "app", None),
                    characterization=characterization,
                )
            )
        ctx.params = [app.params for app in ctx.case_apps]
        hits = sum(m.hit for m in measured)
        artifact["cache"] = {"hits": hits, "misses": len(measured) - hits}
        artifact["curves"] = _curves(measured)
        if scenario.source == "servo":
            servo = measured[0].measurement
            artifact["measured"] = {"xi_tt": servo.xi_tt, "xi_et": servo.xi_et}
    artifact["applications"] = [_params_row(p) for p in ctx.params]
    return artifact


def stage_model(ctx: StudyContext) -> Dict[str, Any]:
    """Fit/instantiate the scenario's PWL dwell models."""
    scenario = ctx.scenario
    shape = scenario.dwell_shape
    if ctx.case_apps is not None:
        # each curve's fits and their verdicts are derived once per curve
        models, verdicts = [], []
        for case_app in ctx.case_apps:
            fits = case_app.characterization.curve.fits
            if shape == "non-monotonic":
                models.append(fits.non_monotonic)
                verdicts.append(fits.non_monotonic_dominates)
            else:
                models.append(fits.monotonic)
                verdicts.append(fits.monotonic_dominates)
        ctx.analyzed = [
            AnalyzedApplication(params=params, dwell_model=model)
            for params, model in zip(ctx.params, models)
        ]
    else:
        ctx.analyzed = [
            AnalyzedApplication(
                params=params, dwell_model=from_timing_parameters(params, shape)
            )
            for params in ctx.params
        ]
        verdicts = [None] * len(ctx.params)
    rows = []
    for app, verdict in zip(ctx.analyzed, verdicts):
        model = app.dwell_model
        rows.append(
            {
                "name": app.name,
                "label": model.label,
                "breakpoints": to_jsonable(model.breakpoints),
                "max_dwell": model.max_dwell,
                "peak_wait": model.peak_wait,
                "dominates_measurement": verdict,
            }
        )
    return {"shape": shape, "models": rows}


def stage_analyze(ctx: StudyContext) -> Dict[str, Any]:
    """Per-application wait-time pre-analysis (feasibility + utilisation)."""
    method = ctx.scenario.method
    rows = []
    total_utilization = 0.0
    for app in ctx.analyzed:
        utilization = app.max_dwell / app.min_inter_arrival
        total_utilization += utilization
        rows.append(
            {
                "name": app.name,
                "deadline": app.deadline,
                "max_dwell": app.max_dwell,
                "utilization": utilization,
                "feasible_alone": bool(is_slot_schedulable([app], method=method)),
            }
        )
    return {
        "method": method,
        "applications": rows,
        "total_utilization": total_utilization,
    }


def stage_allocate(ctx: StudyContext) -> Dict[str, Any]:
    """Pack the applications onto shared TT slots.

    Dispatches through the :mod:`repro.solvers` allocator registry, so
    any registered backend — built-in or third-party — runs here with no
    pipeline changes.  Backend capability metadata and search
    diagnostics (when the backend reports them) land in the artifact.
    """
    from repro.solvers import get_allocator, get_analysis_method

    scenario = ctx.scenario
    spec = get_allocator(scenario.allocator)
    method_spec = get_analysis_method(scenario.method)
    ctx.allocation = spec(ctx.analyzed, method=scenario.method)
    allocation = ctx.allocation
    bus = (scenario.bus.to_config() if scenario.bus else paper_bus_config())
    usage = static_segment_usage(allocation.slot_count, bus.static_slots)
    return {
        "allocator": scenario.allocator,
        "allocator_capabilities": spec.to_dict(),
        "solver_stats": to_jsonable(allocation.stats),
        "method": scenario.method,
        # Carries `safe`: results from a lower-bound method are
        # optimistic and must not be read as deadline guarantees.
        "method_capabilities": method_spec.to_dict(),
        "slot_count": allocation.slot_count,
        "slots": to_jsonable(allocation.slot_names),
        "analyses": {
            name: {
                "max_wait": analysis.max_wait,
                "worst_response": analysis.worst_response,
                "deadline": analysis.deadline,
                "schedulable": bool(analysis.schedulable),
            }
            for name, analysis in sorted(allocation.analyses.items())
        },
        "all_schedulable": bool(allocation.all_schedulable()),
        "static_segment": {
            "slots_used": usage.slots_used,
            "slots_available": usage.slots_available,
            "fraction": usage.fraction,
            "fits": bool(usage.fits),
        },
    }


def stage_cosim(ctx: StudyContext) -> Dict[str, Any]:
    """Verify the allocation by co-simulating all disturbed plants.

    The scenario picks the kernel (``"auto"`` by default — the batch
    fast path; ``"event"`` the reference kernel), the disturbance
    process, and — through ``seed`` — the randomness of sporadic
    arrivals and FlexRay frame loss, so co-simulation runs are exactly
    reproducible from a scenario document.
    """
    scenario = ctx.scenario
    if not scenario.cosim:
        raise StageSkipped("co-simulation disabled by scenario")
    if scenario.source not in ("simulation", "multirate"):
        raise StageSkipped(
            "co-simulation requires plant models "
            "(source='simulation' or 'multirate')"
        )
    assert ctx.case_apps is not None and ctx.allocation is not None
    horizon = scenario.horizon
    if horizon is None:
        horizon = 1.2 * max(app.params.deadline for app in ctx.case_apps)
    cosim_apps = []
    for index, case_app in enumerate(ctx.case_apps):
        if scenario.disturbance == "sporadic":
            disturbances: Any = SporadicDisturbance(
                min_inter_arrival=case_app.params.min_inter_arrival,
                mean_extra_gap=0.5 * case_app.params.min_inter_arrival,
                seed=scenario.seed * 1009 + index,
            )
        else:
            disturbances = OneShotDisturbance(time=0.0)
        cosim_apps.append(
            CoSimApplication(
                app=case_app.app,
                dynamics=case_app.plant.model,
                disturbance_state=case_app.plant.disturbance,
                disturbances=disturbances,
                deadline=case_app.params.deadline,
                slot=ctx.allocation.slot_of(case_app.name),
                frame=FrameSpec(frame_id=index + 1, sender=case_app.name),
            )
        )
    # Backends resolve by registry name (see repro.sim.network), so a
    # third-party network registered under a new name runs here with no
    # pipeline changes — the same dispatch stage_allocate does through
    # the solver registry.
    network = build_network(
        scenario.network,
        bus=scenario.bus.to_config() if scenario.bus else None,
        loss_rate=scenario.loss_rate,
        seed=scenario.seed,
    )
    simulator = CoSimulator(cosim_apps, network, kernel=scenario.kernel)
    ctx.trace = simulator.run(horizon)
    rows = []
    for row in ctx.trace.summary_rows():
        rows.append(
            {
                "name": row["app"],
                "worst_response": row["worst_response"],
                "deadline": row["deadline"],
                "deadline_met": bool(row["deadline_met"]),
                "tt_episodes": len(row["tt_intervals"]),
            }
        )
    artifact = {
        "network": scenario.network,
        "kernel": scenario.kernel,
        # the kernel that executed ("auto" runs the batch kernel)
        "kernel_used": simulator.last_kernel,
        "disturbance": scenario.disturbance,
        "seed": scenario.seed,
        "horizon": horizon,
        "slots": to_jsonable(ctx.allocation.slot_names),
        "applications": rows,
        "all_deadlines_met": bool(ctx.trace.all_deadlines_met()),
        "qoc": ctx.trace.qoc(),
        "jitter_violations": simulator.jitter_violations,
    }
    if scenario.network == "flexray":
        artifact["loss"] = {
            "rate": scenario.loss_rate,
            "lost": network.lost,
            "clamped": network.clamped,
        }
    elif scenario.network != "analytic" and hasattr(network, "statistics"):
        # Newer protocol backends (CAN, third-party): record their own
        # counters; the flexray/analytic blocks above stay byte-stable
        # for existing consumers.
        artifact["network_stats"] = to_jsonable(network.statistics())
    return artifact


STAGES = {
    "characterize": stage_characterize,
    "model": stage_model,
    "analyze": stage_analyze,
    "allocate": stage_allocate,
    "cosim": stage_cosim,
}


def _select_named(items, names, key, kind):
    """Filter ``items`` by the scenario's ``apps`` subset, preserving
    roster order; unknown names raise."""
    if names is None:
        return items
    by_name = {key(item): item for item in items}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(
            f"unknown {kind} name(s) {unknown}; expected a subset of "
            f"{sorted(by_name)}"
        )
    wanted = set(names)
    return [item for item in items if key(item) in wanted]


__all__ = [
    "STAGES",
    "STAGE_ORDER",
    "StageRecord",
    "StageSkipped",
    "StudyContext",
    "measured_curves",
    "stage_allocate",
    "stage_analyze",
    "stage_characterize",
    "stage_cosim",
    "stage_model",
]
