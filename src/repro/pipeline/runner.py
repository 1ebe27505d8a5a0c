"""Execute scenarios: the :class:`DesignStudy` runner and batch sweeps.

``DesignStudy(scenario).run()`` walks the pipeline stage by stage,
recording per-stage artifacts and timings into a
:class:`~repro.pipeline.result.StudyResult`.  A stage that raises a
domain error (infeasible allocation, overloaded slot, bad roster name)
marks the study failed and skips the remaining stages — sweeps over
aggressive grids keep going instead of crashing.

:func:`run_many` executes a scenario list with
:mod:`concurrent.futures` thread workers sharing one
:class:`~repro.pipeline.cache.DwellCurveCache`, so a grid that varies
deadlines, shapes, and allocators measures each dwell curve exactly
once.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.schedulability import UnschedulableError
from repro.pipeline.cache import DwellCurveCache, GLOBAL_DWELL_CACHE
from repro.pipeline.result import StudyAttachments, StudyResult
from repro.pipeline.scenario import Scenario
from repro.pipeline.stages import (
    STAGE_ORDER,
    STAGES,
    StageRecord,
    StageSkipped,
    StudyContext,
)


class DesignStudy:
    """Runs one scenario through the full design chain.

    Parameters
    ----------
    scenario:
        The declarative run description (or a registry name).
    cache:
        Dwell-measurement cache; defaults to the process-wide
        :data:`~repro.pipeline.cache.GLOBAL_DWELL_CACHE`.
    """

    def __init__(
        self,
        scenario: Union[Scenario, str],
        cache: Optional[DwellCurveCache] = None,
    ):
        if isinstance(scenario, str):
            from repro.pipeline.registry import get_scenario

            scenario = get_scenario(scenario)
        self.scenario = scenario
        self.cache = cache if cache is not None else GLOBAL_DWELL_CACHE

    def run(self) -> StudyResult:
        ctx = StudyContext(scenario=self.scenario, cache=self.cache)
        records: List[StageRecord] = []
        # Durations come from the monotonic clock, symmetrically with the
        # per-stage timings below — time.time() is NTP-step sensitive and
        # would let a clock slew corrupt the recorded elapsed time.
        t0_run = time.perf_counter()
        failed = False
        for name in STAGE_ORDER:
            if failed:
                records.append(
                    StageRecord(
                        name=name,
                        status="skipped",
                        elapsed=0.0,
                        artifact={},
                        detail="upstream stage failed",
                    )
                )
                continue
            stage = STAGES[name]
            t0 = time.perf_counter()
            try:
                artifact = stage(ctx)
            except StageSkipped as skip:
                records.append(
                    StageRecord(
                        name=name,
                        status="skipped",
                        elapsed=time.perf_counter() - t0,
                        artifact={},
                        detail=str(skip),
                    )
                )
            except (ValueError, UnschedulableError, KeyError) as exc:
                failed = True
                records.append(
                    StageRecord(
                        name=name,
                        status="failed",
                        elapsed=time.perf_counter() - t0,
                        artifact={},
                        detail=str(exc),
                    )
                )
            else:
                records.append(
                    StageRecord(
                        name=name,
                        status="ok",
                        elapsed=time.perf_counter() - t0,
                        artifact=artifact,
                    )
                )
        from repro import __version__

        provenance = {
            "repro_version": __version__,
            "scenario_name": self.scenario.name,
            # Total run duration on the same monotonic clock as the
            # per-stage `elapsed` fields (so the sum and the total agree).
            "elapsed": time.perf_counter() - t0_run,
            "stage_order": list(STAGE_ORDER),
        }
        attachments = StudyAttachments(
            params=ctx.params,
            case_apps=ctx.case_apps,
            analyzed=ctx.analyzed,
            allocation=ctx.allocation,
            trace=ctx.trace,
        )
        return StudyResult(
            scenario=self.scenario,
            stages=tuple(records),
            provenance=provenance,
            attachments=attachments,
        )


#: Dwell-cache keys a pool worker already held (inherited via fork) or
#: already shipped back; lazily initialised on the worker's first task.
_WORKER_SHIPPED: Optional[set] = None


def _process_worker(
    scenario: Scenario,
) -> Tuple[StudyResult, Dict[Tuple, object]]:
    """Run one study in a pool worker and report new cache entries.

    Each worker keeps its own process-global dwell cache (warm from the
    start under a fork start method); whatever it measures *beyond* that
    baseline is returned alongside the result so the parent can merge it
    — later thread-mode or serial runs in the parent then hit instead of
    re-measuring.
    """
    global _WORKER_SHIPPED
    if _WORKER_SHIPPED is None:
        _WORKER_SHIPPED = GLOBAL_DWELL_CACHE.keys_snapshot()
    result = DesignStudy(scenario, cache=GLOBAL_DWELL_CACHE).run()
    exports = GLOBAL_DWELL_CACHE.export_entries(exclude=_WORKER_SHIPPED)
    _WORKER_SHIPPED.update(exports)
    return result, exports


def run_many(
    scenarios: Iterable[Union[Scenario, str]],
    max_workers: Optional[int] = None,
    cache: Optional[DwellCurveCache] = None,
    executor: str = "thread",
) -> List[StudyResult]:
    """Execute many scenarios, sharing one dwell-measurement cache.

    Results come back in input order.

    Thread workers (the default) share one in-process cache, so a grid
    that varies deadlines, shapes, and allocators measures each dwell
    curve exactly once — but the co-simulation stage is pure-Python and
    GIL-bound, so co-sim-heavy grids gain little wall-clock from
    threads.  ``executor="process"`` fans those out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` instead: scenarios
    are pickled to the workers, each worker keeps a per-process dwell
    cache (inherited warm where the platform forks), and whatever a
    worker measures is merged back into the parent's cache when its
    results return.

    Parameters
    ----------
    scenarios:
        Scenario objects or registry names (names are resolved in the
        calling process, so registry state need not exist in workers).
    max_workers:
        Worker count; defaults to ``min(len(scenarios), cpu_count)``.
        ``1`` forces serial execution.
    cache:
        Shared dwell cache; defaults to the process-wide one.
    executor:
        ``"thread"`` or ``"process"``.
    """
    if executor not in ("thread", "process"):
        raise ValueError(
            f"unknown executor {executor!r}; expected 'thread' or 'process'"
        )
    scenario_list: List[Scenario] = []
    for scenario in scenarios:
        if isinstance(scenario, str):
            from repro.pipeline.registry import get_scenario

            scenario = get_scenario(scenario)
        scenario_list.append(scenario)
    cache = cache if cache is not None else GLOBAL_DWELL_CACHE
    if not scenario_list:
        return []
    if max_workers is None:
        max_workers = min(len(scenario_list), os.cpu_count() or 4)
    if max_workers <= 1 or len(scenario_list) == 1:
        return [DesignStudy(s, cache=cache).run() for s in scenario_list]
    if executor == "process":
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(_process_worker, scenario_list))
        results = []
        for result, exports in outcomes:
            cache.merge_entries(exports)
            results.append(result)
        return results
    with ThreadPoolExecutor(max_workers=max_workers) as executor_pool:
        return list(
            executor_pool.map(
                lambda s: DesignStudy(s, cache=cache).run(), scenario_list
            )
        )


__all__ = ["DesignStudy", "run_many"]
