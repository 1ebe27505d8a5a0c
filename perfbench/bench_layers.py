"""Where the traced run puts its spans, and the per-layer metrics it derives.

The layers are the program's own modules.  A span name's first component
is its layer: ``pipeline`` (runner and stages), ``cache``
(``pipeline.cache``), ``control``, ``core``, ``testbed``, ``solvers``,
``sim``, ``sweep`` (``pipeline.sweep``) and ``fabric``.  Every wrapper is
installed where the caller looks the function up — a module global, a
class attribute or the stage dispatch table — so the program's code is
not touched.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "pipeline", "cache", "control", "core", "testbed",
    "solvers", "sim", "sweep", "fabric",
)


def _waits(args: tuple, curve: Any) -> Dict[str, float]:
    return {"core.dwell_waits": len(curve.waits)}


def _cosim_run(args: tuple, trace: Any) -> Dict[str, float]:
    simulator, horizon = args[0], args[1]
    return {f"sim.kernel.{simulator.last_kernel}": 1, "sim.simulated_s": horizon}


def _send(args: tuple, result: Any) -> Dict[str, float]:
    return {"fabric.messages": 1, "fabric.wire_bytes": len(args[1])}


def _encoded(args: tuple, blob: str) -> Dict[str, float]:
    return {"fabric.cache_bytes": len(blob)}


def trace_targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attr, span, count)`` for every wrapped call site."""
    from repro.core import characterization, switching
    from repro.fabric import coordinator, protocol, worker
    from repro.pipeline import cache, runner, stages, sweep
    from repro.sim import cosim
    from repro.solvers import types
    from repro.testbed import servo

    targets: List[Tuple[Any, str, str, Optional[Callable]]] = [
        (runner.DesignStudy, "run", "pipeline.study", None),
    ]
    targets += [
        (stages.STAGES, name, f"pipeline.{name}", None) for name in stages.STAGE_ORDER
    ]
    targets += [
        (cache.DwellCurveCache, "measurement_info", "cache.measurement", None),
        (cache.DwellCurveCache, "servo_measurement_info", "cache.servo_measurement", None),
        (cache.DwellCurveCache, "characterized_info", "cache.characterized", None),
        (cache.DwellCurveCache, "export_entries", "cache.export", None),
        (cache.DwellCurveCache, "merge_entries", "cache.merge", None),
        (cache, "design_mode_controller", "control.design", None),
        (switching, "settling_time", "control.settle", None),
        (cache, "measure_dwell_curve", "core.dwell_curve", _waits),
        (characterization, "characterize_curve", "core.characterize", None),
        (stages, "characterize_curve", "core.characterize", None),
        (cache, "default_servo_testbed", "testbed.build", None),
        (servo.ServoTestbed, "response_time", "testbed.response", None),
        (types.AllocatorSpec, "__call__", "solvers.allocate", None),
        (stages, "build_network", "sim.build_network", None),
        (cosim.CoSimulator, "__init__", "sim.cosim_init", None),
        (cosim.CoSimulator, "run", "sim.cosim_run", _cosim_run),
        (sweep, "run_sweep", "sweep.run", None),
        (coordinator, "run_fabric_sweep", "fabric.run", None),
        (coordinator.SweepCoordinator, "_grant", "fabric.grant", None),
        (coordinator.SweepCoordinator, "_land", "fabric.land", None),
        (worker.FabricWorker, "run", "fabric.worker", None),
        (protocol.LineChannel, "send_raw", "fabric.send", _send),
    ]
    for module in (coordinator, worker):
        targets += [
            (module, "encode_entries", "fabric.cache_encode", _encoded),
            (module, "decode_entries", "fabric.cache_decode", None),
        ]
    return targets


def trace_gauges() -> Dict[str, Callable[[], float]]:
    from repro.sim.stepper import GLOBAL_ZOH_CACHE

    return {
        "sim.zoh_hits": lambda: GLOBAL_ZOH_CACHE.hits,
        "sim.zoh_misses": lambda: GLOBAL_ZOH_CACHE.misses,
    }


def layer_self(tracer, fanout: Optional[Tuple[str, str]], workers: int) -> Dict[str, float]:
    """Self time per layer, every layer present.

    ``fanout = (outer, inner)`` names a call that hands work to
    ``workers`` parallel workers whose root spans are ``inner``.  The
    outer span mostly waits for them, so its self time becomes the part
    of its duration that the workers' busy time does not explain:
    ``outer - inner / workers``, at least 0.
    """
    layers = dict.fromkeys(LAYERS, 0.0)
    layers.update(tracer.layer_self())
    if fanout is not None:
        outer, inner = fanout
        raw = tracer.spans.get(outer, [0, 0.0, 0.0])[2]
        corrected = max(0.0, raw - tracer.total(inner) / workers)
        layers[outer.split(".", 1)[0]] += corrected - raw
    return layers


def layer_metrics(workload, outcome, tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stage_s: Dict[str, float] = defaultdict(float)
    hits = misses = 0
    for result in outcome.results:
        for record in result.stages:
            stage_s[record.name] += record.elapsed
        lookups = result.artifact("characterize").get("cache", {})
        hits += lookups.get("hits", 0)
        misses += lookups.get("misses", 0)
    m: Dict[str, float] = {}
    for stage in ("characterize", "model", "analyze", "allocate", "cosim"):
        m[f"pipeline.{stage}_s"] = stage_s[stage]
    m["cache.hits"] = hits
    m["cache.misses"] = misses
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["control.design_s"] = tracer.total("control.design")
    m["control.design_calls"] = tracer.calls("control.design")
    m["control.settle_s"] = tracer.total("control.settle")
    m["control.settle_calls"] = tracer.calls("control.settle")
    m["core.dwell_curve_s"] = tracer.total("core.dwell_curve")
    m["core.dwell_waits"] = tracer.counters.get("core.dwell_waits", 0)
    m["core.characterize_s"] = tracer.total("core.characterize")
    m["testbed.response_s"] = tracer.total("testbed.response")
    m["testbed.response_calls"] = tracer.calls("testbed.response")
    m["solvers.allocate_s"] = tracer.total("solvers.allocate")
    m["solvers.allocate_calls"] = tracer.calls("solvers.allocate")
    run_s = tracer.total("sim.cosim_run")
    m["sim.cosim_run_s"] = run_s
    m["sim.cosim_build_s"] = stage_s["cosim"] - run_s
    m["sim.kernel.batch"] = tracer.counters.get("sim.kernel.batch", 0)
    m["sim.kernel.event"] = tracer.counters.get("sim.kernel.event", 0)
    simulated = tracer.counters.get("sim.simulated_s", 0.0)
    m["sim.simulated_per_host_s"] = simulated / run_s if run_s else 0.0
    m["sim.zoh_hits"] = tracer.gauge("sim.zoh_hits")
    m["sim.zoh_misses"] = tracer.gauge("sim.zoh_misses")
    compute = sum(row["duration"] or 0.0 for row in outcome.rows)
    overhead = outcome.wall - compute / workload.workers if outcome.rows else 0.0
    for executor in ("sweep", "fabric"):
        mine = workload.executor == executor
        m[f"{executor}.compute_s"] = compute if mine else 0.0
        m[f"{executor}.overhead_s"] = overhead if mine else 0.0
    m["fabric.messages"] = tracer.counters.get("fabric.messages", 0)
    m["fabric.wire_bytes"] = tracer.counters.get("fabric.wire_bytes", 0)
    m["fabric.cache_codec_s"] = tracer.total("fabric.cache_encode") + tracer.total(
        "fabric.cache_decode"
    )
    m["fabric.cache_bytes"] = tracer.counters.get("fabric.cache_bytes", 0)
    ledger = outcome.fabric or {}
    m["fabric.requeues"] = len(ledger.get("requeues", ()))
    m["fabric.protocol_errors"] = ledger.get("protocol_errors", 0)
    m["fabric.duplicates_ignored"] = ledger.get("duplicates_ignored", 0)
    for layer, seconds in layer_self(tracer, workload.fanout, workload.workers).items():
        m[f"self.{layer}_s"] = seconds
    return m


def dominant_layer(per_layer: Dict[str, float]) -> Tuple[str, float]:
    """The layer with the largest self time and its share of the total."""
    selfs = {layer: per_layer[f"self.{layer}_s"] for layer in LAYERS}
    layer = max(selfs, key=selfs.get)
    total = sum(selfs.values())
    return layer, (selfs[layer] / total if total else 0.0)


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over the traced passes."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
