"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout; the program is imported from
``src/`` next to this directory.  The run sets the workload up (timed
as ``setup_s``), then repeats passes until ``--seconds`` have gone by,
checking every pass's outputs against the set-up reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it alternates untraced and traced passes, reports
the per-layer metrics of the traced ones (median over traced passes),
the tracing overhead, the span table and the dominant layer.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when any op failed or an output mismatched, and
non-zero without a result when the program is missing or set-up fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench_layers import (
    dominant_layer,
    layer_metrics,
    median_metrics,
    trace_gauges,
    trace_targets,
)
from bench_metrics import PER_LAYER, UNITS, tail_percentile
from bench_trace import Tracer
from bench_workloads import WORKLOADS, mismatches

ROOT = Path(__file__).resolve().parent.parent


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {package}")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _line(name: str, value: float, note: str = "") -> None:
    print(f"  {name:<28} {value:>14.6g} {UNITS.get(name, ''):<6} {note}".rstrip())


def _timed_pass(workload):
    started = time.perf_counter()
    outcome = workload.run_pass()
    outcome.wall = time.perf_counter() - started
    return outcome


#: Fewest passes an untraced run makes, whatever ``--seconds`` says, so
#: every end-to-end median is taken over at least two values.  It is
#: also where ``peak_rss_mb`` is read: some workloads grow by a few MB
#: per pass, and the number of passes in ``--seconds`` depends on the
#: host's speed.
MIN_PASSES = 2


def measure(workload, seconds: float, trace: bool, dump_dir: Path):
    """Run passes for ``seconds``; returns ``(plain, traced, peak_rss_mb)``.

    An untraced run makes at least ``MIN_PASSES`` passes.  With
    ``trace`` set, passes alternate plain/traced, at least one of each,
    and ``traced`` holds ``(outcome, layer_metrics, spans)`` triples.
    Each pass's rich results are dropped once read, so the process does
    not grow with the number of passes (pool workers fork from it, which
    would carry the growth into ``peak_rss_mb``).
    """
    plain, traced = [], []
    peak_rss_mb = 0.0
    started = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            with Tracer(trace_targets(), trace_gauges(), dump_dir) as tracer:
                outcome = _timed_pass(workload)
            traced.append((outcome, layer_metrics(workload, outcome, tracer), tracer.spans))
        else:
            outcome = _timed_pass(workload)
            plain.append(outcome)
            if len(plain) == MIN_PASSES:
                peak_rss_mb = _peak_rss_mb()
        outcome.results, outcome.rows = [], []
        enough = len(traced) >= 1 if trace else len(plain) >= MIN_PASSES
        if enough and time.perf_counter() - started >= seconds:
            return plain, traced, peak_rss_mb


def end_to_end(setup_s: float, plain, cpu_s: float, peak_rss_mb: float) -> Dict[str, float]:
    ops = [t for outcome in plain for t in outcome.op_times]
    walls = [outcome.wall for outcome in plain]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(ops),
        "cpu_s": cpu_s / len(plain),
        "peak_rss_mb": peak_rss_mb,
    }
    _line("setup_s", metrics["setup_s"])
    _line("wall_s", metrics["wall_s"],
          f"median of {len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls))
    _line("op_p50_s", metrics["op_p50_s"], f"median of {len(ops)} ops")
    tail = tail_percentile(ops)
    if tail is not None:
        pct, value, beyond = tail
        _line(f"op_p{pct}_s", value, f"{beyond} of {len(ops)} ops beyond it")
    _line("cpu_s", metrics["cpu_s"], "per pass")
    _line("peak_rss_mb", metrics["peak_rss_mb"], f"set-up and the first {MIN_PASSES} passes")
    return metrics


def per_layer(workload, plain, traced) -> Dict[str, float]:
    metrics = median_metrics([sample for _, sample, _ in traced])
    metrics["trace.overhead_s"] = statistics.median(
        outcome.wall for outcome, _, _ in traced
    ) - statistics.median(outcome.wall for outcome in plain)
    for name, _unit, _better, moves in PER_LAYER:
        _line(name, metrics[name], f"-> {moves}")
    layer, share = dominant_layer(metrics)
    print(f"dominant layer of {workload.name}: {layer} ({share:.0%} of traced self time)")
    print("spans of the last traced pass (calls, total s, self s):")
    spans = traced[-1][2]
    for name, (calls, total, own) in sorted(spans.items(), key=lambda item: -item[1][2]):
        print(f"  {name:<28} {calls:>8d} {total:>12.4f} {own:>12.4f}")
    return {name: metrics[name] for name, *_ in PER_LAYER}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object.

    ``small`` shrinks every workload to a minimal pass (coarser wait
    stride, one replication); the self-test uses it.
    """
    started = time.perf_counter()
    _load_program()
    workload = WORKLOADS[workload_name](seed, small=small)
    workload.setup()
    setup_s = time.perf_counter() - started

    dump_dir = ROOT / ".perfbench_tmp" / "trace"
    cpu0 = _cpu_seconds()
    try:
        plain, traced, peak_rss_mb = measure(workload, seconds, trace, dump_dir)
    finally:
        shutil.rmtree(dump_dir.parent, ignore_errors=True)
    cpu_s = _cpu_seconds() - cpu0

    outcomes = plain + [outcome for outcome, _, _ in traced]
    attempted = sum(outcome.attempted for outcome in outcomes)
    # a traced pass must reproduce the untraced outputs exactly
    failed = sum(outcome.failed for outcome in outcomes) + sum(
        mismatches(outcome.outputs, plain[0].outputs) for outcome, _, _ in traced
    )
    failed = min(failed, attempted)

    print(f"{workload.name} (seed {seed}): {workload.describe()}")
    metrics = per_layer(workload, plain, traced) if trace else end_to_end(
        setup_s, plain, cpu_s, peak_rss_mb
    )
    _line("error_rate", failed / attempted, f"{failed} failed of {attempted} ops")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
