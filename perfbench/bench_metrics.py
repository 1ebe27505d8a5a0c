"""The metric catalogue and the statistics the harness reports.

``END_TO_END`` rows are ``(name, unit, better, bound, meaning)`` and
``PER_LAYER`` rows are ``(name, unit, better, moves)``, where ``moves``
says which end-to-end metric, on which workload, the layer metric
should move.  ``BENCHMARK.json`` lists the same names; the self-test
checks that the two agree.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "import, registry, warm caches, sanity checks and reference outputs"),
    ("wall_s", "s", "lower", 0.25, "median host wall time of one pass"),
    ("op_p50_s", "s", "lower", 0.25,
     "median host time of one op: a study, a sweep row, a fabric job's share of its pass"),
    ("cpu_s", "s", "lower", 0.25,
     "user+system CPU per pass, reaped pool workers included"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak RSS of the process plus its largest reaped child, after two passes"),
]

_COLD = "wall_s on study-cold"
_SWEEP = "wall_s and op_p50_s on sweep-warm"
_FABRIC = "wall_s on fabric-fanout"
_FABRIC_OP = "op_p50_s on fabric-fanout"
_FAILED = "wall_s and failed ops on fabric-fanout"

PER_LAYER = [
    ("pipeline.characterize_s", "s", "lower", _COLD),
    ("pipeline.model_s", "s", "lower", _FABRIC_OP),
    ("pipeline.analyze_s", "s", "lower", _FABRIC_OP),
    ("pipeline.allocate_s", "s", "lower", _FABRIC_OP),
    ("pipeline.cosim_s", "s", "lower", _SWEEP),
    ("cache.hits", "count", "higher", "wall_s on sweep-warm"),
    ("cache.misses", "count", "lower", "wall_s on sweep-warm"),
    ("cache.hit_ratio", "ratio", "higher", "wall_s on sweep-warm"),
    ("control.design_s", "s", "lower", _COLD),
    ("control.design_calls", "count", "lower", _COLD),
    ("control.settle_s", "s", "lower", _COLD),
    ("control.settle_calls", "count", "lower", _COLD),
    ("core.dwell_curve_s", "s", "lower", _COLD),
    ("core.dwell_waits", "count", "lower", _COLD),
    ("core.characterize_s", "s", "lower",
     "op_p50_s on sweep-warm and fabric-fanout"),
    ("testbed.response_s", "s", "lower", _COLD),
    ("testbed.response_calls", "count", "lower", _COLD),
    ("solvers.allocate_s", "s", "lower", _FABRIC_OP),
    ("solvers.allocate_calls", "count", "lower", _FABRIC_OP),
    ("sim.cosim_run_s", "s", "lower", _SWEEP),
    ("sim.cosim_build_s", "s", "lower", _SWEEP),
    ("sim.kernel.batch", "count", "higher", _SWEEP),
    ("sim.kernel.event", "count", "lower", _SWEEP),
    ("sim.simulated_per_host_s", "s/s", "higher", _SWEEP),
    ("sim.zoh_hits", "count", "higher", _SWEEP),
    ("sim.zoh_misses", "count", "lower", _SWEEP),
    ("sweep.compute_s", "s", "lower", "wall_s on sweep-warm"),
    ("sweep.overhead_s", "s", "lower", "wall_s on sweep-warm"),
    ("fabric.compute_s", "s", "lower", _FABRIC),
    ("fabric.overhead_s", "s", "lower", _FABRIC),
    ("fabric.messages", "count", "lower", _FABRIC),
    ("fabric.wire_bytes", "B", "lower", _FABRIC),
    ("fabric.cache_codec_s", "s", "lower", _FABRIC),
    ("fabric.cache_bytes", "B", "lower", _FABRIC),
    ("fabric.requeues", "count", "lower", _FAILED),
    ("fabric.protocol_errors", "count", "lower", _FAILED),
    ("fabric.duplicates_ignored", "count", "lower", _FAILED),
    ("self.pipeline_s", "s", "lower", "op_p50_s on fabric-fanout"),
    ("self.cache_s", "s", "lower", "wall_s on sweep-warm"),
    ("self.control_s", "s", "lower", _COLD),
    ("self.core_s", "s", "lower", _COLD),
    ("self.testbed_s", "s", "lower", _COLD),
    ("self.solvers_s", "s", "lower", _FABRIC_OP),
    ("self.sim_s", "s", "lower", _SWEEP),
    ("self.sweep_s", "s", "lower", "wall_s on sweep-warm"),
    ("self.fabric_s", "s", "lower", _FABRIC),
    ("trace.overhead_s", "s", "lower", "nothing: the cost of tracing itself"),
]

#: Printed with the end-to-end metrics but kept out of the result
#: object: error_rate is 0 when all is well, and a tail percentile only
#: exists where at least ten ops lie beyond it.
REPORT_ONLY = [("error_rate", "ratio"), ("op_p90_s", "s"), ("op_p99_s", "s")]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + REPORT_ONLY}


def tail_percentile(values: List[float]) -> Optional[Tuple[int, float, int]]:
    """The highest of p99/p90 with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)`` or ``None`` when even
    p90 has fewer than ten samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 90):
        rank = math.ceil(pct / 100 * n)  # nearest-rank
        beyond = n - rank
        if rank >= 1 and beyond >= 10:
            return pct, ordered[rank - 1], beyond
    return None
