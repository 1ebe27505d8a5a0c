"""Benchmark — exact allocation at scale (ISSUE 2 satellite; ISSUE 5
promotes it from a pass/fail test to a committed ``BENCH_alloc.json``
artifact).

Compares the exhaustive set-partition search against the pruned
branch-and-bound backend on synthetic fleets of 8/12/16/20 applications
and records, per fleet size, the solve wall-clock, the slot count, the
search-node count and the feasibility cache's effectiveness.  The
numbers land in each pytest-benchmark ``extra_info`` and, when
``REPRO_BENCH_WRITE=1``, in ``BENCH_alloc.json`` at the repository root,
which CI's smoke job uploads alongside the co-simulation and sweep
artifacts so the allocation trajectory is trackable across commits.

The exhaustive enumeration is Bell-number-bounded and only runs at
n=8; branch-and-bound must prove the same optimum there and keep
solving — the acceptance bar is a 20-app exact solve in under 5 s.

Smoke mode for CI: set ``REPRO_SCALE_BENCH_MAX`` (e.g. ``12``) to cap
the fleet size, and run with ``--benchmark-disable`` so every case
executes exactly once as a plain regression test.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core.allocation import make_analyzed
from repro.core.timing_params import TimingParameters
from repro.solvers import allocate

_SMOKE_MAX = int(os.environ.get("REPRO_SCALE_BENCH_MAX", "20"))
_WRITE = os.environ.get("REPRO_BENCH_WRITE") == "1"
SIZES = [n for n in (8, 12, 16, 20) if n <= _SMOKE_MAX]
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_alloc.json"

#: Accumulated per-size rows, flushed to BENCH_alloc.json as they land
#: (so a smoke run capped at n=12 still writes an honest partial file).
_ROWS = {}


def synthetic_fleet(n, seed=7):
    """A reproducible n-app roster, every app feasible on its own slot.

    Utilisations and deadlines are drawn so slots typically host a
    handful of applications — enough sharing to make the exact search
    non-trivial without blowing past the deadline bracket.
    """
    rng = random.Random(seed)
    roster = []
    for i in range(n):
        xi_tt = rng.uniform(0.2, 0.6)
        xi_m = xi_tt * rng.uniform(1.1, 1.7)
        xi_et = xi_m * rng.uniform(2.5, 3.5)
        deadline = xi_m * rng.uniform(4.0, 9.0)
        roster.append(
            TimingParameters(
                name=f"S{i:02d}",
                min_inter_arrival=deadline * rng.uniform(2.0, 6.0),
                deadline=deadline,
                xi_tt=xi_tt,
                xi_et=xi_et,
                xi_m=xi_m,
                k_p=0.4 * xi_et,
                xi_m_mono=1.25 * xi_m,
            )
        )
    return make_analyzed(roster, "non-monotonic")


def _flush_artifact():
    if not _WRITE:
        return
    payload = {
        "benchmark": "allocation-scale",
        "smoke": _SMOKE_MAX < 20,
        "max_fleet_size": max(SIZES),
        "sizes": [_ROWS[n] for n in sorted(_ROWS)],
        "generated_unix": round(time.time(), 1),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("n", SIZES)
def test_bench_branch_and_bound_scale(benchmark, n):
    apps = synthetic_fleet(n)
    started = time.perf_counter()
    result = benchmark.pedantic(
        lambda: allocate("branch-and-bound", apps), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - started
    stats = result.stats
    cache = stats["feasibility_cache"]
    benchmark.extra_info["n_apps"] = n
    benchmark.extra_info["slot_count"] = result.slot_count
    benchmark.extra_info["search_nodes"] = stats["nodes"]
    benchmark.extra_info["cache_hit_rate"] = round(cache["hit_rate"], 4)
    benchmark.extra_info["cache_entries"] = cache["entries"]
    assert result.all_schedulable()
    assert result.slot_count <= allocate("first-fit", apps).slot_count
    _ROWS[n] = {
        "n_apps": n,
        "solve_seconds": round(elapsed, 4),
        "slot_count": result.slot_count,
        "search_nodes": stats["nodes"],
        "cache_hit_rate": round(cache["hit_rate"], 4),
        "cache_entries": cache["entries"],
    }
    _flush_artifact()


def test_bench_exhaustive_optimum_at_8(benchmark):
    """The seed backend's comfort zone — and the agreement check."""
    apps = synthetic_fleet(8)
    exhaustive = benchmark.pedantic(
        lambda: allocate("optimal", apps), rounds=1, iterations=1
    )
    bnb = allocate("branch-and-bound", apps)
    assert bnb.slot_count == exhaustive.slot_count


def test_twenty_app_exact_solve_under_five_seconds():
    """ISSUE 2 acceptance: a 20-app exact solve finishes in < 5 s."""
    if _SMOKE_MAX < 20:
        pytest.skip("smoke mode caps the fleet below 20 apps")
    apps = synthetic_fleet(20)
    start = time.perf_counter()
    result = allocate("branch-and-bound", apps)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"20-app exact solve took {elapsed:.2f}s"
    assert result.all_schedulable()
    cache = result.stats["feasibility_cache"]
    assert cache["hits"] > 0  # memoization actually engaged
    print(
        f"\n20-app branch-and-bound: {elapsed:.3f}s, "
        f"{result.slot_count} slots, {result.stats['nodes']} nodes, "
        f"cache hit rate {cache['hit_rate']:.1%} ({cache['entries']} entries)"
    )


def test_bench_alloc_json_is_valid():
    """The artifact exists (this run or a committed one) and parses."""
    assert OUTPUT.exists(), "BENCH_alloc.json missing; run the scale bench first"
    payload = json.loads(OUTPUT.read_text())
    assert payload["benchmark"] == "allocation-scale"
    assert payload["sizes"], "no fleet sizes recorded"
    for row in payload["sizes"]:
        assert row["solve_seconds"] >= 0
        assert row["slot_count"] >= 1
