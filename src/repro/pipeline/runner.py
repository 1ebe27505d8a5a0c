"""Execute scenarios: the :class:`DesignStudy` runner and batch sweeps.

``DesignStudy(scenario).run()`` walks the pipeline stage by stage,
recording per-stage artifacts and timings into a
:class:`~repro.pipeline.result.StudyResult`.  A stage that raises a
domain error (infeasible allocation, overloaded slot, bad roster name)
marks the study failed and skips the remaining stages — sweeps over
aggressive grids keep going instead of crashing.

A :class:`Dispatcher` runs a scenario list serially, study by study,
or on a :mod:`concurrent.futures` pool, one contiguous chunk per worker,
which runs it with :func:`run_chunk` and so co-simulates the chunk's
compatible studies together.  :func:`run_many` and
:func:`~repro.pipeline.sweep.run_sweep` both run through it.  Thread
workers share one :class:`~repro.pipeline.cache.DwellCurveCache`, so a
grid that varies deadlines, shapes, and allocators measures each dwell
curve exactly once.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.schedulability import UnschedulableError
from repro.pipeline.cache import DwellCurveCache, GLOBAL_DWELL_CACHE
from repro.pipeline.result import StudyAttachments, StudyResult
from repro.pipeline.scenario import Scenario
from repro.pipeline.stages import (
    STAGE_ORDER,
    STAGES,
    CosimBuild,
    StageRecord,
    StageSkipped,
    StudyContext,
    cosim_build,
    cosim_summarize,
)
from repro.sim.cosim import lockstep_groups, run_together
from repro.sim.stepper import adopt_probe_verdicts, probe_verdicts
from repro.sim.trace import SimulationTrace


#: Stage errors that fail a study instead of escaping from its run.
_DOMAIN_ERRORS = (ValueError, UnschedulableError, KeyError)


class _Walk:
    """One study's way down the design chain: context and stage records.

    Durations come from the monotonic clock — ``time.time()`` is NTP-step
    sensitive and would let a clock slew corrupt the recorded elapsed
    time.
    """

    def __init__(self, scenario: Scenario, cache: DwellCurveCache):
        self.scenario = scenario
        self.ctx = StudyContext(scenario=scenario, cache=cache)
        self.records: List[StageRecord] = []
        self.failed = False
        self.started = time.perf_counter()
        #: a built co-simulation waiting for its run, and the host time
        #: its stage has spent so far
        self.build: Optional[CosimBuild] = None
        self.cosim_s = 0.0

    def _attempt(self, name: str, call: Callable[[StudyContext], Any], spent: float):
        """Run ``call(ctx)`` as (part of) stage ``name``; a skip or a
        domain error becomes the stage's record.  Returns ``(value,
        seconds)``, ``value`` ``None`` once recorded."""
        if self.failed:
            self.records.append(
                StageRecord(
                    name=name,
                    status="skipped",
                    elapsed=0.0,
                    artifact={},
                    detail="upstream stage failed",
                )
            )
            return None, 0.0
        t0 = time.perf_counter()
        try:
            value = call(self.ctx)
        except StageSkipped as skip:
            status, detail = "skipped", str(skip)
        except _DOMAIN_ERRORS as exc:
            self.failed = True
            status, detail = "failed", str(exc)
        else:
            return value, time.perf_counter() - t0
        self.records.append(
            StageRecord(
                name=name,
                status=status,
                elapsed=spent + time.perf_counter() - t0,
                artifact={},
                detail=detail,
            )
        )
        return None, 0.0

    def stage(self, name: str, call: Callable[[StudyContext], Dict[str, Any]],
              spent: float = 0.0) -> None:
        """Run one stage; ``spent`` is host time it already took apart."""
        artifact, seconds = self._attempt(name, call, spent)
        if artifact is not None:
            self.records.append(
                StageRecord(
                    name=name, status="ok", elapsed=spent + seconds, artifact=artifact
                )
            )

    def build_cosim(self) -> None:
        """The cosim stage up to its kernel: :attr:`build` stays ``None``
        when the stage was skipped or failed (and recorded)."""
        self.build, self.cosim_s = self._attempt("cosim", cosim_build, 0.0)

    def rebuild_cosim(self) -> None:
        """A fresh build for a run whose simulator a failed group left
        part-way (the build is seeded, so it is the same run)."""
        t0 = time.perf_counter()
        self.build = cosim_build(self.ctx)
        self.cosim_s += time.perf_counter() - t0

    def run_cosim(self, trace: Optional[SimulationTrace] = None, shared_s: float = 0.0) -> None:
        """Finish the cosim stage with the summary of ``trace``, a run
        shared with other studies of which ``shared_s`` is this study's
        share; without one the kernel runs here, alone."""
        build = self.build
        assert build is not None
        self.build = None

        def finish(ctx: StudyContext) -> Dict[str, Any]:
            ran = build.simulator.run(build.horizon) if trace is None else trace
            return cosim_summarize(ctx, build, ran)

        self.stage("cosim", finish, spent=self.cosim_s + shared_s)

    def result(self, elapsed: Optional[float] = None) -> StudyResult:
        from repro import __version__

        provenance = {
            "repro_version": __version__,
            "scenario_name": self.scenario.name,
            # Total run duration on the same monotonic clock as the
            # per-stage `elapsed` fields (so the sum and the total agree).
            "elapsed": time.perf_counter() - self.started if elapsed is None else elapsed,
            "stage_order": list(STAGE_ORDER),
        }
        ctx = self.ctx
        attachments = StudyAttachments(
            params=ctx.params,
            case_apps=ctx.case_apps,
            analyzed=ctx.analyzed,
            allocation=ctx.allocation,
            trace=ctx.trace,
        )
        return StudyResult(
            scenario=self.scenario,
            stages=tuple(self.records),
            provenance=provenance,
            attachments=attachments,
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
        walk = _Walk(self.scenario, self.cache)
        for name in STAGE_ORDER:
            walk.stage(name, STAGES[name])
        return walk.result()


#: A study's outcome in a chunk: its result, or what it raised.
Outcome = Union[StudyResult, Exception]


def run_chunk(
    scenarios: Sequence[Scenario], cache: Optional[DwellCurveCache] = None
) -> List[Outcome]:
    """Run a pool worker's chunk of studies, co-simulating the compatible
    ones together; outcomes come back in input order.

    One study is :meth:`DesignStudy.run`.  For more, every study walks
    the chain up to its built co-simulation; then the runs that share
    one tick grid and design (:func:`~repro.sim.cosim.lockstep_groups`)
    advance together (:func:`~repro.sim.cosim.run_together`), every
    other runs alone, and each study summarizes its own trace.  Results
    are bitwise those of :meth:`DesignStudy.run`; only the timings
    differ.  A grouped study's cosim stage takes its own build and
    summary time plus its share of the group's kernel time, so its
    ``duration`` stays its own host time.

    A study that raises anything but a domain error (which fails the
    study, as in :meth:`DesignStudy.run`) becomes that exception in the
    outcomes, and the rest of the chunk goes on: a group whose lockstep
    run raises is rebuilt and re-run study by study.
    """
    cache = cache if cache is not None else GLOBAL_DWELL_CACHE
    if len(scenarios) == 1:
        try:
            return [DesignStudy(scenarios[0], cache=cache).run()]
        except Exception as exc:  # crash-proof: the caller records it
            return [exc]
    outcomes: List[Optional[Outcome]] = [None] * len(scenarios)
    walks: Dict[int, _Walk] = {}
    for index, scenario in enumerate(scenarios):
        walk = _Walk(scenario, cache)
        try:
            for name in STAGE_ORDER[:-1]:
                walk.stage(name, STAGES[name])
            walk.build_cosim()
        except Exception as exc:
            outcomes[index] = exc
            continue
        if walk.build is None:
            outcomes[index] = _own_result(walk)
        else:
            walks[index] = walk
    pending = list(walks)
    builds = [walks[index].build for index in pending]
    for group in lockstep_groups(
        [build.simulator for build in builds], [build.horizon for build in builds]
    ):
        indices = [pending[g] for g in group]
        members = [walks[index] for index in indices]
        if len(members) > 1:
            t0 = time.perf_counter()
            try:
                traces = run_together(
                    [walk.build.simulator for walk in members],
                    [walk.build.horizon for walk in members],
                )
            except Exception:
                pass  # each study re-runs alone, so the failure lands on its own
            else:
                share = (time.perf_counter() - t0) / len(members)
                for index, walk, trace in zip(indices, members, traces):
                    outcomes[index] = _finish(walk, trace, share)
                continue
        for index, walk in zip(indices, members):
            outcomes[index] = _finish(walk, rebuild=len(members) > 1)
    return outcomes  # type: ignore[return-value]


def _own_result(walk: _Walk) -> StudyResult:
    """A chunked study's result; its elapsed time is its stages' own."""
    return walk.result(elapsed=sum(record.elapsed for record in walk.records))


def _finish(
    walk: _Walk,
    trace: Optional[SimulationTrace] = None,
    shared_s: float = 0.0,
    rebuild: bool = False,
) -> Outcome:
    """One chunked study's cosim stage and result, or what it raised."""
    try:
        if rebuild:
            walk.rebuild_cosim()
        walk.run_cosim(trace, shared_s)
    except Exception as exc:
        return exc
    return _own_result(walk)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (a cpuset-pinned container sees fewer than ``cpu_count``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 4


def chunked(items: Sequence, workers: int) -> List[list]:
    """Split ``items`` into at most ``workers`` contiguous chunks of
    ``ceil(len / workers)``, the last one shorter."""
    size = -(-len(items) // workers)
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


#: Dwell-cache keys and ``stacked_safe`` shapes a pool worker already
#: held (inherited via fork) or already shipped back; lazily initialised
#: on the worker's first task.
_WORKER_SHIPPED: Optional[set] = None
_WORKER_PROBED: Optional[set] = None


def _process_chunk(
    scenarios: List[Scenario],
) -> Tuple[List[Outcome], Dict[Tuple, object], Dict[Tuple[int, int], bool]]:
    """Run one chunk in a pool worker and report new cache entries and
    probe verdicts.

    Each worker keeps its own process-global dwell cache and
    :func:`~repro.sim.stepper.stacked_safe` memo (warm from the start
    under a fork start method); whatever it measures or probes *beyond*
    that baseline is returned alongside the outcomes so the parent can
    adopt it — later thread-mode or serial runs in the parent then hit
    instead of re-measuring, and the next pool forks with the verdicts.

    An exception that would not survive the trip back (pickling it, or
    rebuilding it in the parent, raises) travels as a ``RuntimeError``
    of its ``repr``, so it stays its own study's crash instead of
    failing the whole chunk.
    """
    global _WORKER_SHIPPED, _WORKER_PROBED
    if _WORKER_SHIPPED is None:
        _WORKER_SHIPPED = GLOBAL_DWELL_CACHE.keys_snapshot()
        _WORKER_PROBED = set(probe_verdicts())
    outcomes = run_chunk(scenarios, cache=GLOBAL_DWELL_CACHE)
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            try:
                pickle.loads(pickle.dumps(outcome))
            except Exception:
                outcomes[index] = RuntimeError(repr(outcome))
    exports = GLOBAL_DWELL_CACHE.export_entries(exclude=_WORKER_SHIPPED)
    _WORKER_SHIPPED.update(exports)
    verdicts = {
        shape: safe
        for shape, safe in probe_verdicts().items()
        if shape not in _WORKER_PROBED
    }
    _WORKER_PROBED.update(verdicts)
    return outcomes, exports, verdicts


class Dispatcher:
    """Runs study lists, inline or on a pool, and lands every outcome.

    The one home of how :func:`run_many` and
    :func:`~repro.pipeline.sweep.run_sweep` spread studies over workers.
    :meth:`run` calls ``land(index, outcome)`` once per study, the
    outcome being its :class:`StudyResult` or the exception it raised
    (a domain error fails the study instead, as in
    :meth:`DesignStudy.run`).

    The first list run sizes the pool: ``max_workers`` workers, by
    default ``min(len(list), usable_cpus())``.  With one worker, or a
    first list of at most one study, every list runs serially: each
    study alone and inline (:meth:`DesignStudy.run`), landing as it
    ends.  Otherwise each list is cut into contiguous chunks of
    ``ceil(len / workers)`` studies, a worker runs its chunk with
    :func:`run_chunk` (co-simulating its compatible studies together),
    and a chunk's outcomes land together, chunks in completion order.
    Thread workers share ``cache``; a process worker keeps its own
    process-wide cache (inherited warm where the platform forks), and
    what it measured merges into ``cache`` as its chunk lands, as do the
    :func:`~repro.sim.stepper.stacked_safe` verdicts it reached into
    this process's memo, so the next pool forks with them.  A worker
    that dies lands its whole chunk as the exception.  The pool lives
    until :meth:`close`, so a sweep's rounds share it.
    """

    def __init__(
        self,
        executor: str,
        max_workers: Optional[int],
        cache: Optional[DwellCurveCache],
    ):
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; expected 'thread' or 'process'"
            )
        self.executor = executor
        self.workers = max_workers
        self.cache = cache if cache is not None else GLOBAL_DWELL_CACHE
        #: decided by the first :meth:`run`
        self.serial: Optional[bool] = None
        self._pool: Optional[Executor] = None

    def run(
        self, scenarios: Sequence[Scenario], land: Callable[[int, Outcome], None]
    ) -> None:
        if self.serial is None:
            if self.workers is None:
                self.workers = min(len(scenarios), usable_cpus())
            self.serial = self.workers <= 1 or len(scenarios) <= 1
            if not self.serial:
                pool_cls = (
                    ProcessPoolExecutor
                    if self.executor == "process"
                    else ThreadPoolExecutor
                )
                self._pool = pool_cls(max_workers=self.workers)
        if self.serial:
            for index, scenario in enumerate(scenarios):
                try:
                    outcome: Outcome = DesignStudy(scenario, cache=self.cache).run()
                except Exception as exc:  # crash-proof: the caller records it
                    outcome = exc
                land(index, outcome)
            return
        pending = {}
        first = 0
        for chunk in chunked(scenarios, self.workers):
            if self.executor == "process":
                future = self._pool.submit(_process_chunk, chunk)
            else:
                future = self._pool.submit(run_chunk, chunk, self.cache)
            pending[future] = range(first, first + len(chunk))
            first += len(chunk)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                indices = pending.pop(future)
                try:
                    landed = future.result()
                except Exception as exc:  # the worker died mid-chunk
                    landed = [exc] * len(indices)
                else:
                    if self.executor == "process":
                        landed, exports, verdicts = landed
                        self.cache.merge_entries(exports)
                        adopt_probe_verdicts(verdicts)
                for index, outcome in zip(indices, landed):
                    land(index, outcome)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def run_many(
    scenarios: Iterable[Union[Scenario, str]],
    max_workers: Optional[int] = None,
    cache: Optional[DwellCurveCache] = None,
    executor: str = "thread",
) -> List[StudyResult]:
    """Execute many scenarios, sharing one dwell-measurement cache.

    Results come back in input order, and they are bitwise those of
    serial runs.  The studies run through a :class:`Dispatcher`: serially
    one by one, or as one contiguous chunk per pool worker, which
    co-simulates its chunk's compatible studies together
    (:func:`run_chunk`).  Thread workers (the default) share one
    in-process cache, so a grid that varies deadlines, shapes, and
    allocators measures each dwell curve exactly once — but the
    co-simulation stage is pure-Python and GIL-bound, so co-sim-heavy
    grids gain little wall-clock from threads.  ``executor="process"``
    fans the chunks out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` instead: scenarios
    are pickled to the workers, each worker keeps a per-process dwell
    cache (inherited warm where the platform forks), and whatever a
    worker measures is merged back into the parent's cache when its
    results return.  Once every study has landed, the first exception
    a study raised, in input order, re-raises here.

    Parameters
    ----------
    scenarios:
        Scenario objects or registry names (names are resolved in the
        calling process, so registry state need not exist in workers).
    max_workers:
        Worker count; defaults to ``min(len(scenarios), usable CPUs)``
        (the process's CPU affinity set where the platform has one).
        ``1`` forces serial execution.
    cache:
        Shared dwell cache; defaults to the process-wide one.
    executor:
        ``"thread"`` or ``"process"``.
    """
    dispatcher = Dispatcher(executor, max_workers, cache)
    scenario_list: List[Scenario] = []
    for scenario in scenarios:
        if isinstance(scenario, str):
            from repro.pipeline.registry import get_scenario

            scenario = get_scenario(scenario)
        scenario_list.append(scenario)
    outcomes: List[Optional[Outcome]] = [None] * len(scenario_list)
    try:
        dispatcher.run(scenario_list, outcomes.__setitem__)
    finally:
        dispatcher.close()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes  # type: ignore[return-value]


__all__ = ["DesignStudy", "Dispatcher", "run_chunk", "run_many", "usable_cpus"]
