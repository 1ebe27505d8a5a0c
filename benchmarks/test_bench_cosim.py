"""Benchmark — co-simulation throughput (ISSUE 3 tentpole, ISSUE 5/8 kernels).

Times a 32-scenario Monte-Carlo co-simulation grid (the Figure 5 fleet,
sporadic disturbances, FlexRay frame loss, seeds 0..31) through
``run_many`` with thread workers vs a process pool, plus three **kernel
shoot-outs** (event kernel vs batch fast path) — one on the fig5
analytic scenario, one on the loss-free cycle-accurate FlexRay fig5
fleet, where the batch loop drives the FlexRay bus's own cycle core,
and one on the ``can-cosim`` fleet, where the batch loop drives the
CAN bus's own arbitration core — plus one run of the ``can-cosim``
scenario (the priority-arbitrated CAN backend), and writes the numbers
to ``BENCH_cosim.json`` at the repository root when
``REPRO_BENCH_WRITE=1``.

The co-simulation loop is pure Python, so thread workers serialize on
the GIL; the process pool is the scaling path.  The ``>= 2x`` speedup
acceptance bar is asserted only where it is physically possible
(``cpu_count >= 4``) — the JSON records the honest measurement either
way, including the core count it was taken on.  The kernel bars
(batch speedup over the event kernel ``>= 3x`` on the analytic fleet
and ``>= 2x`` on the FlexRay fleet) are asserted in full mode, where
horizons are long enough for the ratios to mean something; each
ratio is the median over ``KERNEL_PAIRS`` paired trials that alternate
which kernel runs first (``run_kernel_ablation``), and the CAN ratio is
recorded without a bar.  The traces-bitwise-identical
cross-checks run in every mode.

The file runs in smoke mode (small grid, short horizon, no wall-clock
bar) unless ``REPRO_COSIM_BENCH_SMOKE=0``, so the test suite never
asserts a timing.  Run the full mode, bars included, on purpose::

    REPRO_COSIM_BENCH_SMOKE=0 PYTHONPATH=src python -m pytest \
        benchmarks/test_bench_cosim.py -q --benchmark-disable

CI runs it so in a blocking step of its own.
"""

import json
import os
import time
from pathlib import Path

from repro.experiments import run_kernel_ablation, run_table1
from repro.pipeline import get_scenario, run_many
from repro.sim import GLOBAL_ZOH_CACHE

_SMOKE = os.environ.get("REPRO_COSIM_BENCH_SMOKE", "1") != "0"
_WRITE = os.environ.get("REPRO_BENCH_WRITE") == "1"
GRID_SIZE = 4 if _SMOKE else 32
HORIZON = 4.0 if _SMOKE else 20.0
WAIT_STEP = 16 if _SMOKE else 8
#: Paired event/batch trials per kernel shoot-out; the bars hold the
#: median pair ratio, and on a shared 2-core host single pairs of these
#: 0.04-0.2 s stages range from about 2.4x to 5.6x on the analytic fleet.
KERNEL_PAIRS = 1 if _SMOKE else 9
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_cosim.json"


def _grid(size):
    """``size`` co-sim scenarios: one shared design, per-seed randomness."""
    base = get_scenario("fig5-cosim").derive(
        name="bench-cosim",
        wait_step=WAIT_STEP,
        horizon=HORIZON,
        disturbance="sporadic",
        loss_rate=0.01,
    )
    return [base.derive(name=f"bench-cosim#seed{s}", seed=s) for s in range(size)]


def test_bench_cosim_grid_thread_vs_process():
    """Record the thread-vs-process wall clock on the co-sim grid."""
    # Warm the process-wide dwell cache first so both executors measure
    # pure co-simulation throughput (workers fork warm where the
    # platform supports it; thread workers share this cache directly).
    run_table1(wait_step=WAIT_STEP)
    scenarios = _grid(GRID_SIZE)
    workers = max(2, min(8, os.cpu_count() or 1))

    started = time.perf_counter()
    thread_results = run_many(scenarios, max_workers=workers, executor="thread")
    thread_seconds = time.perf_counter() - started

    started = time.perf_counter()
    process_results = run_many(scenarios, max_workers=workers, executor="process")
    process_seconds = time.perf_counter() - started

    assert all(r.ok for r in thread_results)
    assert all(r.ok for r in process_results)
    # Same seeds, same design: the two executors must agree on physics.
    thread_qoc = [r.artifact("cosim")["qoc"] for r in thread_results]
    process_qoc = [r.artifact("cosim")["qoc"] for r in process_results]
    assert thread_qoc == process_qoc

    kernels = run_kernel_ablation(
        wait_step=WAIT_STEP, horizon=HORIZON, repeats=KERNEL_PAIRS
    )
    assert kernels.traces_identical

    flexray_kernels = run_kernel_ablation(
        wait_step=WAIT_STEP,
        horizon=HORIZON,
        repeats=KERNEL_PAIRS,
        scenario="fig5-cosim",
    )
    assert flexray_kernels.traces_identical

    can_kernels = run_kernel_ablation(
        wait_step=WAIT_STEP,
        horizon=HORIZON,
        repeats=KERNEL_PAIRS,
        scenario="can-cosim",
    )
    assert can_kernels.traces_identical

    # ISSUE 9: the CAN backend rides the same artifact.  One run of the
    # can-cosim scenario records its throughput and bus counters; the
    # keys are new, so compare_bench.py shows them as non-blocking
    # "new/gone" rows until a committed baseline exists, then as
    # advisory timing diffs (never part of the blocking --only gate).
    can_scenario = get_scenario("can-cosim").derive(
        name="bench-can-cosim", wait_step=WAIT_STEP, horizon=HORIZON
    )
    started = time.perf_counter()
    can_result = run_many([can_scenario], max_workers=1, executor="thread")[0]
    can_seconds = time.perf_counter() - started
    assert can_result.ok
    can_artifact = can_result.artifact("cosim")
    # The "can" strategy: the batch loop drives the bus's arbitration core.
    assert can_artifact["kernel_used"] == "batch"

    speedup = thread_seconds / process_seconds if process_seconds else float("inf")
    payload = {
        "benchmark": "cosim-throughput",
        "smoke": _SMOKE,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "grid_size": GRID_SIZE,
        "horizon_seconds": HORIZON,
        "wait_step": WAIT_STEP,
        "thread_seconds": round(thread_seconds, 3),
        "process_seconds": round(process_seconds, 3),
        "speedup_process_vs_thread": round(speedup, 3),
        "scenarios_per_second": {
            "thread": round(GRID_SIZE / thread_seconds, 3),
            "process": round(GRID_SIZE / process_seconds, 3),
        },
        "kernel": {
            "scenario": kernels.scenario,
            "batch_cosim_seconds": round(kernels.batch_seconds, 4),
            "event_cosim_seconds": round(kernels.event_seconds, 4),
            "batch_speedup_vs_event": round(kernels.batch_speedup_vs_event, 3),
            "traces_bitwise_identical": kernels.traces_identical,
            "samples": kernels.samples,
        },
        "flexray_kernel": {
            "scenario": flexray_kernels.scenario,
            "batch_cosim_seconds": round(flexray_kernels.batch_seconds, 4),
            "event_cosim_seconds": round(flexray_kernels.event_seconds, 4),
            "batch_speedup_vs_event": round(
                flexray_kernels.batch_speedup_vs_event, 3
            ),
            "traces_bitwise_identical": flexray_kernels.traces_identical,
            "samples": flexray_kernels.samples,
        },
        "can_kernel": {
            "scenario": can_kernels.scenario,
            "batch_cosim_seconds": round(can_kernels.batch_seconds, 4),
            "event_cosim_seconds": round(can_kernels.event_seconds, 4),
            "batch_speedup_vs_event": round(can_kernels.batch_speedup_vs_event, 3),
            "traces_bitwise_identical": can_kernels.traces_identical,
            "samples": can_kernels.samples,
        },
        "can_cosim": {
            "scenario": "can-cosim",
            "cosim_seconds": round(can_seconds, 4),
            "kernel_used": can_artifact["kernel_used"],
            "qoc": round(can_artifact["qoc"], 6),
            "deadlines_met": int(can_artifact["all_deadlines_met"]),
            "network_stats": can_artifact["network_stats"],
        },
        "zoh_cache": GLOBAL_ZOH_CACHE.stats(),
        "generated_unix": round(time.time(), 1),
    }
    if _WRITE:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\ncosim grid ({GRID_SIZE} scenarios, {workers} workers): "
        f"thread {thread_seconds:.2f}s, process {process_seconds:.2f}s, "
        f"speedup {speedup:.2f}x" + (f" -> {OUTPUT.name}" if _WRITE else "")
    )
    # The acceptance bar needs real cores; a 1-2 core runner cannot
    # express a 2x parallel win and records the honest number instead.
    if not _SMOKE and (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (
            f"process pool speedup {speedup:.2f}x below the 2x bar "
            f"on {os.cpu_count()} cores"
        )
    # Kernel bars (full mode only): on the analytic fleet the batch fast
    # path must run at least 3x faster than the event kernel.  Smoke
    # horizons are milliseconds of work — too noisy to assert on.
    if not _SMOKE:
        assert kernels.batch_speedup_vs_event >= 3.0, (
            f"batch kernel only {kernels.batch_speedup_vs_event:.2f}x "
            "faster than the event kernel, below the 3x bar"
        )
        # FlexRay bar: on the loss-free FlexRay fleet the batch loop,
        # which skips the bus's idle cycles, must buy at least 2x over
        # the event kernel.
        assert flexray_kernels.batch_speedup_vs_event >= 2.0, (
            f"FlexRay batch kernel only "
            f"{flexray_kernels.batch_speedup_vs_event:.2f}x faster than "
            "the event kernel, below the 2x bar"
        )


def test_bench_cosim_json_is_valid():
    """The artifact exists (this run or a committed one) and parses."""
    assert OUTPUT.exists(), "BENCH_cosim.json missing; run the grid bench first"
    payload = json.loads(OUTPUT.read_text())
    assert payload["benchmark"] == "cosim-throughput"
    assert payload["grid_size"] >= 4
    kernel = payload["kernel"]
    assert kernel["traces_bitwise_identical"] is True
    assert {"batch_cosim_seconds", "event_cosim_seconds"} <= set(kernel)
    assert kernel["batch_speedup_vs_event"] > 0
    flexray = payload["flexray_kernel"]
    assert flexray["traces_bitwise_identical"] is True
    assert {"batch_cosim_seconds", "event_cosim_seconds"} <= set(flexray)
    assert flexray["batch_speedup_vs_event"] > 0
    can_kernel = payload["can_kernel"]
    assert can_kernel["traces_bitwise_identical"] is True
    assert can_kernel["batch_speedup_vs_event"] > 0
    can = payload["can_cosim"]
    assert can["scenario"] == "can-cosim"
    assert can["kernel_used"] == "batch"
    assert can["cosim_seconds"] > 0
    assert can["network_stats"]["delivered"] > 0
    assert payload["speedup_process_vs_thread"] > 0
