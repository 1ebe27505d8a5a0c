"""Ablation experiments (E6-E8, E11, E12) for DESIGN.md's design decisions.

* E6 — number of PWL segments: two-segment (paper) vs the concave
  envelope (the "three or more" extension of Section III) vs the
  monotonic line, measured by slot count and dwell-bound tightness;
* E7 — closed-form wait bound (Eq. 20) vs exact fixed point (Eq. 5):
  pessimism gap on randomised application sets;
* E8 — steady-state threshold sweep on the servo testbed;
* E11 — actuation-delay equalisation (jitter buffering) on vs off;
* E12 — the batch co-simulation kernel vs the event-driven reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pwl import (
    fit_concave_envelope,
    fit_conservative_monotonic,
    fit_two_segment,
)
from repro.core.schedulability import (
    AnalyzedApplication,
    analyze_application,
)
from repro.core.timing_params import TimingParameters
from repro.experiments.casestudy import simulated_design
from repro.experiments.reporting import format_table
from repro.solvers import allocate
from repro.testbed.servo import ServoRigConfig, default_servo_testbed


# ---------------------------------------------------------------------------
# E6 — PWL segment count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentAblationResult:
    """Slot counts and dwell-bound tightness per model family."""

    slot_counts: Dict[str, int]
    mean_dwell_bounds: Dict[str, float]

    def report(self) -> str:
        rows = [
            [label, self.slot_counts[label], self.mean_dwell_bounds[label]]
            for label in self.slot_counts
        ]
        return "PWL segment ablation\n" + format_table(
            ["model", "TT slots", "mean dwell bound [s]"], rows
        )


def run_segment_ablation(wait_step: int = 2) -> SegmentAblationResult:
    """E6: richer PWL models never need more slots than coarser ones."""
    applications = simulated_design(wait_step).case_apps
    fits = {
        "conservative-monotonic": fit_conservative_monotonic,
        "two-segment": fit_two_segment,
        "concave-envelope": fit_concave_envelope,
    }
    slot_counts: Dict[str, int] = {}
    mean_bounds: Dict[str, float] = {}
    for label, fit in fits.items():
        analyzed = []
        bounds = []
        for case_app in applications:
            curve = case_app.characterization.curve
            model = fit(curve)
            analyzed.append(
                AnalyzedApplication(params=case_app.params, dwell_model=model)
            )
            bounds.extend(model.dwell_array(curve.waits))
        slot_counts[label] = allocate("first-fit", analyzed).slot_count
        mean_bounds[label] = float(np.mean(bounds))
    return SegmentAblationResult(slot_counts=slot_counts, mean_dwell_bounds=mean_bounds)


# ---------------------------------------------------------------------------
# E7 — closed form vs fixed point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointAblationResult:
    """Pessimism of the closed-form bound over random app sets."""

    samples: int
    mean_gap: float
    max_gap: float
    disagreements: int  # schedulability verdicts that differ

    def report(self) -> str:
        return (
            "Closed-form (Eq. 20) vs fixed point (Eq. 5)\n"
            f"samples: {self.samples}, mean wait-bound gap: {self.mean_gap:.3f} s, "
            f"max gap: {self.max_gap:.3f} s, verdict disagreements: {self.disagreements}"
        )


def _random_app(rng: np.random.Generator, index: int) -> AnalyzedApplication:
    xi_tt = rng.uniform(0.3, 2.0)
    xi_m = xi_tt * rng.uniform(1.0, 2.0)
    xi_et = xi_m * rng.uniform(2.0, 4.0)
    k_p = rng.uniform(0.2, 0.8) * xi_et
    deadline = xi_et * rng.uniform(0.8, 1.5)
    r = deadline * rng.uniform(1.5, 6.0)
    params = TimingParameters(
        name=f"R{index}",
        min_inter_arrival=r,
        deadline=deadline,
        xi_tt=xi_tt,
        xi_et=xi_et,
        xi_m=xi_m,
        k_p=k_p,
        xi_m_mono=xi_m * rng.uniform(1.0, 1.5),
    )
    return AnalyzedApplication.from_params(params)


def run_fixed_point_ablation(
    samples: int = 50, apps_per_set: int = 4, seed: int = 0
) -> FixedPointAblationResult:
    """E7: the closed form is never less pessimistic than the fixed point."""
    rng = np.random.default_rng(seed)
    gaps = []
    disagreements = 0
    for __ in range(samples):
        apps = [_random_app(rng, i) for i in range(apps_per_set)]
        subject = apps[-1]
        sharers = apps[:-1]
        closed = analyze_application(subject, sharers, method="closed-form")
        exact = analyze_application(subject, sharers, method="fixed-point")
        if np.isfinite(closed.max_wait) and np.isfinite(exact.max_wait):
            gap = closed.max_wait - exact.max_wait
            if gap < -1e-9:
                raise AssertionError(
                    "closed-form wait bound fell below the exact fixed point"
                )
            gaps.append(gap)
        if closed.schedulable != exact.schedulable:
            disagreements += 1
    return FixedPointAblationResult(
        samples=samples,
        mean_gap=float(np.mean(gaps)) if gaps else 0.0,
        max_gap=float(np.max(gaps)) if gaps else 0.0,
        disagreements=disagreements,
    )


# ---------------------------------------------------------------------------
# E8 — threshold sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSweepResult:
    """xi_TT / xi_ET / peak dwell across steady-state thresholds."""

    rows: List[Tuple[float, float, float, float]]  # (Eth, xi_tt, xi_et, peak dwell)

    def report(self) -> str:
        return "Threshold (Eth) sweep on the servo rig\n" + format_table(
            ["Eth", "xi_TT [s]", "xi_ET [s]", "peak dwell [s]"],
            [list(row) for row in self.rows],
        )


def run_threshold_sweep(
    thresholds: Optional[List[float]] = None,
    wait_step: int = 4,
    max_samples: int = 500,
) -> ThresholdSweepResult:
    """E8: smaller thresholds stretch every response time."""
    thresholds = thresholds or [0.05, 0.1, 0.2, 0.4]
    rows = []
    for eth in thresholds:
        testbed = default_servo_testbed(ServoRigConfig(threshold=eth))
        period = testbed.config.period
        source = testbed.response_source(max_samples=max_samples)
        xi_et = source.pure_et_response()
        waits = np.arange(0, int(xi_et / period) + 1, wait_step)
        responses = source(waits)  # waits[0] == 0: the pure-TT run
        peak = max(0.0, float(np.max(responses - waits * period)))
        rows.append((eth, float(responses[0]), xi_et, peak))
    return ThresholdSweepResult(rows=rows)


# ---------------------------------------------------------------------------
# E11 — delay equalisation (jitter buffering) on/off
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JitterAblationResult:
    """Worst responses with and without actuation-delay equalisation.

    ``*_episodes`` counts threshold-crossing episodes; values above the
    number of injected disturbances indicate limit-cycle chattering
    around the threshold caused by the loop/delay model mismatch.
    """

    equalized: Dict[str, float]
    raw: Dict[str, float]
    equalized_misses: int
    raw_misses: int
    equalized_episodes: Dict[str, int]
    raw_episodes: Dict[str, int]

    def report(self) -> str:
        rows = [
            [
                name,
                self.equalized[name],
                self.raw.get(name, float("nan")),
                self.equalized_episodes[name],
                self.raw_episodes.get(name, 0),
            ]
            for name in sorted(self.equalized)
        ]
        return (
            "Delay-equalisation ablation (FlexRay network, heavy background traffic)\n"
            + format_table(
                [
                    "app",
                    "equalized response [s]",
                    "raw response [s]",
                    "episodes (eq)",
                    "episodes (raw)",
                ],
                rows,
            )
            + f"\ndeadline misses: equalized={self.equalized_misses}, raw={self.raw_misses}"
        )


def run_jitter_ablation(
    wait_step: int = 4, horizon: float = 20.0
) -> JitterAblationResult:
    """E11: actuating at the design-time delay vs as-soon-as-delivered.

    The controllers are designed for fixed worst-case delays; actuating
    messages the moment the (usually faster) bus delivers them de-tunes
    the loops.  Equalisation (jitter buffering) restores the design
    model.  This quantifies the difference under heavy background load.
    """
    from repro.control.disturbance import OneShotDisturbance
    from repro.flexray.bus import FlexRayBus
    from repro.flexray.params import paper_bus_config
    from repro.pipeline.stages import cosim_roster
    from repro.sim.cosim import CoSimulator
    from repro.sim.network import FlexRayNetwork
    from repro.sim.traffic import heavy_background_traffic

    design = simulated_design(wait_step)
    applications = design.case_apps
    results: Dict[bool, Dict[str, float]] = {}
    episodes: Dict[bool, Dict[str, int]] = {}
    misses: Dict[bool, int] = {}
    for equalize in (True, False):
        cosim_apps = cosim_roster(
            applications,
            design.allocation,
            [OneShotDisturbance(time=0.0) for _ in applications],
        )
        network = FlexRayNetwork(
            bus=FlexRayBus(config=paper_bus_config()),
            traffic=heavy_background_traffic(count=8, first_frame_id=100),
        )
        trace = CoSimulator(cosim_apps, network, equalize_delays=equalize).run(horizon)
        results[equalize] = {}
        episodes[equalize] = {}
        misses[equalize] = 0
        for case_app in applications:
            app_trace = trace[case_app.name]
            responses = app_trace.response_times
            worst = max(responses) if responses else float("inf")
            results[equalize][case_app.name] = worst
            episodes[equalize][case_app.name] = len(app_trace.tt_intervals())
            if not app_trace.deadline_met() or (
                app_trace.settling_time() is None
                and case_app.params.deadline < horizon
            ):
                misses[equalize] += 1
    return JitterAblationResult(
        equalized=results[True],
        raw=results[False],
        equalized_misses=misses[True],
        raw_misses=misses[False],
        equalized_episodes=episodes[True],
        raw_episodes=episodes[False],
    )


# ---------------------------------------------------------------------------
# E12 — batch fast path vs the event-driven reference kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelAblationResult:
    """Cross-check of the two co-simulation kernels on one scenario.

    Both kernels are bitwise-equivalent by construction; this ablation re-verifies that on the full Figure 5
    roster and reports each kernel's co-simulation wall-clock (best of
    ``repeats`` runs, so warm-cache timings are compared) and the
    event/batch ratio of each paired trial (``pair_ratios``).
    """

    scenario: str
    event_seconds: float
    batch_seconds: float
    traces_identical: bool
    samples: int
    apps: int
    pair_ratios: Tuple[float, ...]

    @property
    def batch_speedup_vs_event(self) -> float:
        """How many times faster the batch fast path runs than event:
        the median of the paired trials' ratios."""
        return float(np.median(self.pair_ratios))

    def report(self) -> str:
        verdict = "bitwise identical" if self.traces_identical else "DIVERGED"
        rows = [
            ["batch", f"{self.batch_seconds:.3f}",
             f"{self.batch_speedup_vs_event:.2f}x"],
            ["event", f"{self.event_seconds:.3f}", "1.00x"],
        ]
        return (
            f"Co-simulation kernel ablation ({self.scenario}; "
            f"{self.apps} apps, {self.samples} samples)\n"
            + format_table(["kernel", "cosim stage [s]", "vs event"], rows)
            + f"\nspeed-up: median of {len(self.pair_ratios)} paired trial(s)"
            + f"\ntraces: {verdict}"
        )


def traces_bitwise_equal(a, b) -> bool:
    """Exact (no-tolerance) equality of two simulation traces."""
    if set(a.apps) != set(b.apps):
        return False
    for name in a.apps:
        ta, tb = a[name], b[name]
        for fld in ("times", "norms", "delays", "states", "response_times"):
            va, vb = getattr(ta, fld), getattr(tb, fld)
            if len(va) != len(vb) or any(x != y for x, y in zip(va, vb)):
                return False
    return True


def run_kernel_ablation(
    wait_step: int = 2,
    horizon: Optional[float] = None,
    repeats: int = 1,
    scenario: str = "fig5-cosim-analytic",
) -> KernelAblationResult:
    """E12: the batch fast path must reproduce the event kernel exactly.

    ``repeats`` runs that many paired trials, one study per kernel,
    alternating which kernel goes first, so that an order effect or a
    slow stretch of the host does not land on one kernel only.  The
    speed-up is the median of the pairs' event/batch ratios of the
    co-simulation stage; ``event_seconds``/``batch_seconds`` keep each
    kernel's fastest stage (the first pass pays process-wide cache
    warm-up; benchmarks that publish ratios should pass
    ``repeats>=3``).  ``scenario`` selects the ablation subject: the
    default analytic Figure 5 roster, ``"fig5-cosim"`` (a
    cycle-accurate FlexRay bus) or ``"can-cosim"``; ``"auto"`` runs the
    batch kernel on each.
    """
    from repro.pipeline import DesignStudy, get_scenario

    base = get_scenario(scenario).derive(wait_step=wait_step, horizon=horizon)
    runs = {}
    seconds = {"event": float("inf"), "auto": float("inf")}
    ratios = []
    for trial in range(max(1, repeats)):
        pair = {}
        for kernel in ("event", "auto") if trial % 2 == 0 else ("auto", "event"):
            study = (
                DesignStudy(base.derive(name=f"{base.name}@{kernel}", kernel=kernel))
                .run()
                .raise_for_failure()
            )
            pair[kernel] = study.stage("cosim").elapsed
            seconds[kernel] = min(seconds[kernel], pair[kernel])
            runs[kernel] = study
        ratios.append(
            pair["event"] / pair["auto"] if pair["auto"] > 0 else float("inf")
        )
    event_trace = runs["event"].attachments.trace
    return KernelAblationResult(
        scenario=base.name,
        event_seconds=seconds["event"],
        batch_seconds=seconds["auto"],
        traces_identical=traces_bitwise_equal(
            runs["auto"].attachments.trace, event_trace
        ),
        samples=sum(len(t.times) for t in event_trace.apps.values()),
        apps=len(event_trace.apps),
        pair_ratios=tuple(ratios),
    )


__all__ = [
    "FixedPointAblationResult",
    "JitterAblationResult",
    "KernelAblationResult",
    "SegmentAblationResult",
    "ThresholdSweepResult",
    "run_fixed_point_ablation",
    "run_jitter_ablation",
    "run_kernel_ablation",
    "run_segment_ablation",
    "run_threshold_sweep",
    "traces_bitwise_equal",
]
