"""Benchmark — characterisation throughput (ISSUE 8 satellite).

Characterising an application means designing both mode controllers and
simulating the switched closed loop once per candidate switch instant —
the most expensive primitive in the pipeline, and the one the
``DwellCurveCache`` exists to amortise.  This bench times the full
simulation-mode roster cold (every plant measured from scratch in a
fresh cache) and then warm (same plants, re-characterised at scaled
deadlines, so every lookup is served from memory and only the cheap PWL
fits re-run), and records both throughputs plus the warm speedup in
``BENCH_char.json`` at the repository root — the ROADMAP's
characterisation-throughput artifact — when ``REPRO_BENCH_WRITE=1``.

The warm pass exercises the deadline-sweep hot path: grids re-derive
timing parameters per deadline but must never re-measure a curve.  The
exact hit/miss accounting, asserted in every mode, is what catches a
bypassed cache; the warm speedup is recorded but not asserted, because
a stacked cold pass is fast enough that the wall-clock ratio is noise.
Smoke mode for CI: ``REPRO_CHAR_BENCH_SMOKE=1`` coarsens the wait
stride so the job finishes in a second.
"""

import json
import os
import time
from pathlib import Path

from repro.experiments.casestudy import SIMULATION_CASE_STUDY
from repro.pipeline import DwellCurveCache

_SMOKE = os.environ.get("REPRO_CHAR_BENCH_SMOKE", "") not in ("", "0")
_WRITE = os.environ.get("REPRO_BENCH_WRITE") == "1"
WAIT_STEP = 16 if _SMOKE else 4
DEADLINE_SCALES = (1.0, 0.9, 0.75)
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_char.json"


def _characterize_roster(cache, deadline_scale):
    """One pass over the roster; returns the slowest plant's name."""
    slowest = (0.0, "")
    for plant_name, detuning, inter_arrival, deadline in SIMULATION_CASE_STUDY:
        started = time.perf_counter()
        case_app = cache.characterized(
            plant_name,
            detuning,
            inter_arrival,
            deadline * deadline_scale,
            wait_step=WAIT_STEP,
        )
        elapsed = time.perf_counter() - started
        assert case_app.params.deadline > 0
        slowest = max(slowest, (elapsed, plant_name))
    return slowest[1]


def test_bench_char_cold_vs_warm():
    """Record cold-measure vs warm-cache characterisation throughput."""
    roster = len(SIMULATION_CASE_STUDY)
    cache = DwellCurveCache()

    started = time.perf_counter()
    slowest_plant = _characterize_roster(cache, deadline_scale=1.0)
    cold_seconds = time.perf_counter() - started
    assert cache.misses == roster and cache.hits == 0

    # Deadline sweeps share one measurement per plant: the warm passes
    # must be pure cache hits, paying only the PWL fits.
    started = time.perf_counter()
    for scale in DEADLINE_SCALES[1:]:
        _characterize_roster(cache, deadline_scale=scale)
    warm_passes = len(DEADLINE_SCALES) - 1
    warm_seconds = (time.perf_counter() - started) / warm_passes
    assert cache.misses == roster and cache.hits == roster * warm_passes

    warm_speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    payload = {
        "benchmark": "char-throughput",
        "smoke": _SMOKE,
        "cpu_count": os.cpu_count(),
        "wait_step": WAIT_STEP,
        "roster_size": roster,
        "deadline_scales": list(DEADLINE_SCALES),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds_per_pass": round(warm_seconds, 5),
        "warm_speedup_vs_cold": round(warm_speedup, 1),
        "plants_per_second": {
            "cold": round(roster / cold_seconds, 3),
            "warm": round(roster / warm_seconds, 1),
        },
        "slowest_cold_plant": slowest_plant,
        "cache": {"entries": len(cache), "hits": cache.hits, "misses": cache.misses},
        "generated_unix": round(time.time(), 1),
    }
    if _WRITE:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"\ncharacterisation ({roster} plants, wait_step={WAIT_STEP}): "
        f"cold {cold_seconds:.2f}s, warm {warm_seconds * 1e3:.1f}ms/pass, "
        f"speedup {warm_speedup:.0f}x" + (f" -> {OUTPUT.name}" if _WRITE else "")
    )


def test_bench_char_json_is_valid():
    """The artifact exists (this run or a committed one) and parses."""
    assert OUTPUT.exists(), "BENCH_char.json missing; run the char bench first"
    payload = json.loads(OUTPUT.read_text(encoding="utf-8"))
    assert payload["benchmark"] == "char-throughput"
    assert payload["roster_size"] == len(SIMULATION_CASE_STUDY)
    assert payload["cold_seconds"] > 0
    assert payload["warm_seconds_per_pass"] > 0
    assert payload["warm_speedup_vs_cold"] > 1.0
    assert payload["cache"]["misses"] == payload["roster_size"]
