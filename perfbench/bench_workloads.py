"""The benchmark's three workloads.

Each workload is built from a seed, sets itself up once (imports happen
before, warm caches and reference outputs here) and then runs *passes*.
A pass returns a :class:`PassOutcome`: the per-op host times, the
outputs the harness compares against the set-up reference, and the
rich results the traced run reads per-layer numbers from.

* ``study-cold`` — ``fig5-cosim``, ``multirate-cosim`` and
  ``fig3-servo`` run serially, each with a fresh dwell cache and an
  emptied ZOH cache: the characterisation path (control, core, testbed).
* ``sweep-warm`` — a fixed ``run_sweep`` of ``fig5-cosim`` with
  sporadic disturbances over network x loss rate, on a process pool
  that forks from a warm dwell cache: the co-simulation kernels (sim).
* ``fabric-fanout`` — ``run_fabric_sweep`` of ``sim-table1`` over
  deadline scale x dwell shape x allocator on two thread workers that
  start cold and are fed the coordinator's warm cache over the wire:
  leases, the line protocol and cache shipping (fabric).
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Row keys that say where or when a row was computed, not what.
_PLACEMENT_KEYS = ("duration", "worker", "attempt", "cache_hit")


@dataclass
class PassOutcome:
    """One pass: op times, comparable outputs, failures, rich results.

    ``outputs`` is one canonical JSON string per op, so comparing them
    is exact for floats and safe for NaN.
    """

    op_times: List[float]
    outputs: List[str]
    attempted: int
    failed: int
    results: List[Any] = field(default_factory=list)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    fabric: Optional[Dict[str, Any]] = None
    wall: float = 0.0


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def _placement_free(rows: List[Dict[str, Any]]) -> List[str]:
    return [
        _canonical({k: v for k, v in row.items() if k not in _PLACEMENT_KEYS})
        for row in rows
    ]


def mismatches(outputs: List[str], reference: List[str]) -> int:
    """Ops whose output differs from the reference (all, if counts differ)."""
    if len(outputs) != len(reference):
        return max(len(outputs), len(reference))
    return sum(out != ref for out, ref in zip(outputs, reference))


class StudyCold:
    """Three cold design studies, one after the other."""

    name = "study-cold"
    executor = None
    fanout = None
    workers = 1
    scenario_names = ("fig5-cosim", "multirate-cosim", "fig3-servo")

    def __init__(self, seed: int, small: bool = False):
        from repro.pipeline import get_scenario

        rng = random.Random(seed)
        self.scenarios = []
        for name in self.scenario_names:
            scenario = get_scenario(name).derive(seed=rng.randrange(1, 10**6))
            if small and name != "multirate-cosim":  # its fast loop needs a fine stride
                scenario = scenario.derive(wait_step=16)
            self.scenarios.append(scenario)
        self.reference: Optional[List[str]] = None

    def describe(self) -> str:
        return f"{len(self.scenarios)} cold studies, serial"

    def setup(self) -> None:
        from repro.pipeline import DesignStudy, get_scenario
        from repro.pipeline.cache import DwellCurveCache

        for name, slots in (("paper-table1", 3), ("paper-table1-monotonic", 5)):
            got = DesignStudy(get_scenario(name), cache=DwellCurveCache()).run()
            if got.slot_count != slots:
                raise RuntimeError(
                    f"set-up sanity check: {name} gives {got.slot_count} slots, "
                    f"expected {slots}"
                )
        first = self.run_pass()
        if first.failed:
            raise RuntimeError("a set-up study failed")
        self.reference = first.outputs

    @staticmethod
    def _output(result) -> str:
        return _canonical(
            {
                "curves": result.artifact("characterize").get("curves"),
                "slot_count": result.slot_count,
            }
        )

    def run_pass(self) -> PassOutcome:
        from repro.pipeline import DesignStudy
        from repro.pipeline.cache import DwellCurveCache
        from repro.sim.stepper import GLOBAL_ZOH_CACHE

        times, results = [], []
        for scenario in self.scenarios:
            GLOBAL_ZOH_CACHE.clear()
            started = time.perf_counter()
            result = DesignStudy(scenario, cache=DwellCurveCache()).run()
            times.append(time.perf_counter() - started)
            results.append(result)
        outputs = [self._output(result) for result in results]
        reference = self.reference or outputs
        failed = sum(
            not result.ok or out != ref
            for result, out, ref in zip(results, outputs, reference)
        )
        return PassOutcome(
            op_times=times,
            outputs=outputs,
            attempted=len(results),
            failed=failed,
            results=results,
        )


class _FixedSweep:
    """Shared set-up of the two grid workloads: a serial reference."""

    executor = ""
    base_name = ""
    replications = 1
    workers = 2

    def __init__(self, seed: int, small: bool = False):
        from repro.pipeline import get_scenario

        rng = random.Random(seed)
        self.seed0 = rng.randrange(10**6)
        self.base = get_scenario(self.base_name).derive(**self.base_overrides(small))
        self.axes = self.grid(small)
        self.replications = 1 if small else self.replications
        self.reference: List[str] = []

    def describe(self) -> str:
        cells = len(self.reference) // self.replications
        return (
            f"{cells} cells x {self.replications} replications = "
            f"{len(self.reference)} ops, {self.workers} workers"
        )

    def base_overrides(self, small: bool) -> Dict[str, Any]:
        return {"wait_step": 16} if small else {}

    def grid(self, small: bool) -> Dict[str, list]:
        raise NotImplementedError

    def setup(self) -> None:
        """Warm the process-wide dwell cache and compute the reference.

        The serial reference sweep measures every dwell curve once
        (misses), so the timed passes that follow only hit.
        """
        from repro.pipeline import sweep
        from repro.pipeline.cache import GLOBAL_DWELL_CACHE

        GLOBAL_DWELL_CACHE.clear()
        reference = sweep.run_sweep(
            self.base,
            self.axes,
            replications=self.replications,
            seed0=self.seed0,
            executor="thread",
            max_workers=1,
            cache=GLOBAL_DWELL_CACHE,
            keep_results=False,
        )
        if any(row.get("failed_stage") == "worker" for row in reference.rows):
            raise RuntimeError("the serial reference sweep has crash rows")
        self.reference = _placement_free(reference.rows)

    def outcome(self, sweep_result, fabric=None) -> PassOutcome:
        """Failed ops: rows unlike the serial reference (which has no
        crash rows, so every crash row is one), and on the fabric each
        requeue and protocol error."""
        rows = sweep_result.rows
        outputs = _placement_free(rows)
        failed = mismatches(outputs, self.reference)
        if fabric is not None:
            failed += len(fabric["requeues"]) + fabric["protocol_errors"]
        attempted = len(self.reference)
        return PassOutcome(
            op_times=[row["duration"] for row in rows if row["duration"] is not None],
            outputs=outputs,
            attempted=attempted,
            failed=min(failed, attempted),
            results=list(sweep_result.results),
            rows=rows,
            fabric=fabric,
        )


class SweepWarm(_FixedSweep):
    """Seeded replications of fig5 on a process pool, dwell cache warm."""

    name = "sweep-warm"
    executor = "sweep"
    fanout = ("sweep.run", "pipeline.study")
    base_name = "fig5-cosim"
    replications = 2

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.workers = min(2, _nproc())

    def base_overrides(self, small: bool) -> Dict[str, Any]:
        return {"disturbance": "sporadic", **super().base_overrides(small)}

    def grid(self, small: bool) -> Dict[str, list]:
        # Batch kernels take the loss-free FlexRay and every analytic
        # cell (4 of 9, ~0.12 s each), the event kernel the rest (~0.42 s).
        # An even split would put the op median in the gap between the
        # two groups, where it jumps from run to run.
        return {"network": ["flexray", "analytic", "can"], "loss_rate": [0.0, 0.02, 0.05]}

    def run_pass(self) -> PassOutcome:
        from repro.pipeline import sweep
        from repro.pipeline.cache import GLOBAL_DWELL_CACHE

        result = sweep.run_sweep(
            self.base,
            self.axes,
            replications=self.replications,
            seed0=self.seed0,
            executor="process",
            max_workers=self.workers,
            cache=GLOBAL_DWELL_CACHE,
        )
        return self.outcome(result)


class FabricFanout(_FixedSweep):
    """sim-table1 grid on the local fabric; workers start cold."""

    name = "fabric-fanout"
    executor = "fabric"
    fanout = ("fabric.run", "fabric.worker")
    base_name = "sim-table1"
    replications = 4

    def grid(self, small: bool) -> Dict[str, list]:
        return {
            "deadline_scale": [1.0, 2.0] if small else [0.75, 1.0, 1.5, 2.0],
            "dwell_shape": ["non-monotonic", "conservative-monotonic"],
            "allocator": ["first-fit", "best-fit", "branch-and-bound"],
        }

    def run_pass(self) -> PassOutcome:
        from repro.fabric import coordinator
        from repro.pipeline.cache import GLOBAL_DWELL_CACHE

        started = time.perf_counter()
        result = coordinator.run_fabric_sweep(
            self.base,
            self.axes,
            replications=self.replications,
            seed0=self.seed0,
            workers=self.workers,
            cache=GLOBAL_DWELL_CACHE,
            keep_results=True,
            timeout=150.0,
        )
        wall = time.perf_counter() - started
        outcome = self.outcome(result, fabric=result.config["fabric"])
        # A row's own duration doubles when the other worker thread held
        # the interpreter lock meanwhile, and the share of such rows
        # swings from pass to pass; an op's host time here is therefore
        # its share of the pass.
        share = wall * self.workers / len(outcome.op_times)
        outcome.op_times = [share] * len(outcome.op_times)
        return outcome


WORKLOADS = {cls.name: cls for cls in (StudyCold, SweepWarm, FabricFanout)}

