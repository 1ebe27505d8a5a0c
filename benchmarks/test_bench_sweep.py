"""Benchmark — adaptive vs fixed Monte-Carlo sweeps (ISSUE 4 tentpole).

Runs a seeded demo grid with deliberately heterogeneous variance — the
one-shot disturbance cells are deterministic across seeds while the
sporadic cells genuinely vary — first in adaptive mode (stop each cell
once its QoC 95 % half-width reaches a relative target, re-grant the
freed budget to high-variance cells), then as the fixed grid that
reaches the *same* per-cell precision (every cell gets the adaptive
worst-cell replication count).  The replication savings are recorded in
``BENCH_sweep.json`` at the repository root — the ROADMAP's second
BENCH artifact — when ``REPRO_BENCH_WRITE=1``.

The savings are seed-deterministic, not timing-dependent, so the
``>= 25 %`` acceptance bar is asserted in full mode on any machine;
smoke mode (``REPRO_SWEEP_BENCH_SMOKE=1``, used by CI's 1-core runners)
shrinks the grid and asserts schema only.
"""

import json
import os
import time
from pathlib import Path

from repro.pipeline import DwellCurveCache, get_scenario, run_sweep

_SMOKE = os.environ.get("REPRO_SWEEP_BENCH_SMOKE", "") not in ("", "0")
_WRITE = os.environ.get("REPRO_BENCH_WRITE") == "1"
HORIZON = 6.0 if _SMOKE else 10.0
CI_TARGET = 0.12  # relative: stop at a half-width of 12 % of |mean|
MIN_REPLICATIONS = 2
MAX_REPLICATIONS = 16 if _SMOKE else 24
AXES = (
    {"disturbance": ["one-shot", "sporadic"]}
    if _SMOKE
    else {
        "disturbance": ["one-shot", "sporadic"],
        "dwell_shape": ["non-monotonic", "conservative-monotonic"],
    }
)
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"


def _base():
    # The two-plant multirate roster subset: cheap per replication, and
    # wait_step=4 keeps the 2 ms loop's short dwell curve resolvable.
    return get_scenario("multirate-cosim-analytic").derive(
        name="bench-sweep",
        apps=("motor-current-loop", "servo-rig"),
        wait_step=4,
        horizon=HORIZON,
    )


def test_bench_sweep_adaptive_vs_fixed():
    """Record adaptive vs fixed replication counts at equal CI."""
    base = _base()

    started = time.perf_counter()
    adaptive = run_sweep(
        base,
        axes=AXES,
        replications=MIN_REPLICATIONS,
        ci_target=CI_TARGET,
        ci_relative=True,
        max_replications=MAX_REPLICATIONS,
        max_workers=1,
        cache=DwellCurveCache(),
        keep_results=False,
    )
    adaptive_seconds = time.perf_counter() - started
    assert all(cell.stopped_reason == "ci-target" for cell in adaptive.cells), (
        "every cell must converge to the CI target for the equal-precision "
        "comparison to be honest"
    )

    # The fixed grid reaching the same per-cell precision must give every
    # cell what the adaptive worst cell needed.
    worst = max(cell.runs for cell in adaptive.cells)
    started = time.perf_counter()
    fixed = run_sweep(
        base,
        axes=AXES,
        replications=worst,
        max_workers=1,
        cache=DwellCurveCache(),
        keep_results=False,
    )
    fixed_seconds = time.perf_counter() - started
    within = {}
    for cell in fixed.cells:
        qoc = cell.metrics["qoc"]
        within[cell.name] = bool(
            qoc["ci95"] <= CI_TARGET * abs(qoc["mean"]) + 1e-12
        )
    savings = 1.0 - adaptive.replications_spent / fixed.replications_spent

    payload = {
        "benchmark": "sweep-adaptive",
        "smoke": _SMOKE,
        "cpu_count": os.cpu_count(),
        "horizon_seconds": HORIZON,
        "axes": {name: list(values) for name, values in AXES.items()},
        "ci_target": {"value": CI_TARGET, "relative": True},
        "min_replications": MIN_REPLICATIONS,
        "max_replications": MAX_REPLICATIONS,
        "adaptive": {
            "total_replications": adaptive.replications_spent,
            "replications_saved_vs_cap": adaptive.replications_saved,
            "rounds": adaptive.rounds,
            "elapsed_seconds": round(adaptive_seconds, 3),
            "per_cell": {
                cell.name: {
                    "runs": cell.runs,
                    "rounds": cell.rounds,
                    "stopped_reason": cell.stopped_reason,
                    "qoc_mean": cell.metrics["qoc"]["mean"],
                    "qoc_ci95": cell.metrics["qoc"]["ci95"],
                }
                for cell in adaptive.cells
            },
        },
        "fixed": {
            "replications_per_cell": worst,
            "total_replications": fixed.replications_spent,
            "elapsed_seconds": round(fixed_seconds, 3),
            "all_cells_within_target": all(within.values()),
            "within_target_per_cell": within,
        },
        "savings_fraction": round(savings, 4),
        "generated_unix": round(time.time(), 1),
    }
    if _WRITE:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"\nadaptive sweep: {adaptive.replications_spent} replications "
        f"({adaptive.rounds} rounds, {adaptive_seconds:.1f}s) vs fixed "
        f"{fixed.replications_spent} ({fixed_seconds:.1f}s) at equal CI -> "
        f"{savings:.0%} saved" + (f" -> {OUTPUT.name}" if _WRITE else "")
    )
    assert all(within.values()), (
        "fixed grid at the adaptive worst-cell count missed the CI target "
        f"somewhere: {within}"
    )
    # Seed-deterministic acceptance bar; smoke mode asserts schema only
    # (see test below), matching the cosim bench's CI convention.
    if not _SMOKE:
        assert savings >= 0.25, (
            f"adaptive mode saved only {savings:.0%} replications vs the "
            f"equal-precision fixed grid (bar: 25%)"
        )


def test_bench_sweep_json_is_valid():
    """The artifact exists (this run or a committed one) and parses."""
    assert OUTPUT.exists(), "BENCH_sweep.json missing; run the sweep bench first"
    payload = json.loads(OUTPUT.read_text(encoding="utf-8"))
    assert payload["benchmark"] == "sweep-adaptive"
    assert payload["adaptive"]["total_replications"] >= 1
    assert payload["fixed"]["total_replications"] >= 1
    assert payload["fixed"]["all_cells_within_target"] is True
    assert 0.0 <= payload["savings_fraction"] < 1.0
    for cell in payload["adaptive"]["per_cell"].values():
        assert cell["stopped_reason"] == "ci-target"
