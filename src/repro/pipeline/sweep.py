"""Seeded Monte-Carlo sweeps over scenario grids.

A *sweep* is a two-level expansion of one base scenario:

* **axes** — named scenario fields crossed into a cartesian grid
  (``{"loss_rate": [0.0, 0.05], "deadline_scale": [1.0, 0.75]}`` gives
  four *cells*);
* **replications** — every cell is run with consecutive seeds
  (``seed0 + r``), which re-draws sporadic disturbance arrivals and
  FlexRay frame loss while holding the design fixed.

:func:`run_sweep` grants replications in **rounds** through an
:class:`~repro.pipeline.adaptive.AdaptiveScheduler`, and the
:class:`~repro.pipeline.runner.Dispatcher` that
:func:`~repro.pipeline.runner.run_many` also uses runs each round:
serially, study by study, or on a thread or process pool
(co-sim-heavy grids want ``executor="process"`` — the simulation loop
is pure Python and GIL-bound) as one contiguous chunk of jobs per
worker, which co-simulates the chunk's compatible studies together
(:func:`~repro.pipeline.runner.run_chunk`).  In the default *fixed* mode every
cell receives exactly ``replications`` runs.  Passing ``ci_target``
switches to *adaptive* mode: a cell stops as soon as the Student-t 95 %
half-width of its QoC mean reaches the target, and the freed budget is
re-granted to the highest-variance open cells, up to
``max_replications`` per cell and an optional global ``budget``.

Per-cell statistics are maintained incrementally (Welford accumulators
updated as rows land — aggregation never re-scans the row log), each
finished study can stream one JSON line to disk as it lands (rows carry
the dispatch ``round``), and a replication that *crashes*
inside the pool is recorded as a synthetic failed row
(``failed_stage="worker"``) instead of aborting the sweep — the rows
already landed stay aggregated.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.pipeline.adaptive import METRICS, AdaptiveScheduler, CellState
from repro.pipeline.cache import DwellCurveCache
from repro.pipeline.result import StudyResult
from repro.pipeline.runner import Dispatcher
from repro.pipeline.scenario import Scenario
from repro.pipeline.serialize import to_jsonable


def expand_cells(
    base: Union[Scenario, str],
    axes: Optional[Dict[str, Sequence[Any]]] = None,
) -> List[Tuple[str, Scenario]]:
    """Cross the axis values into ``(cell_name, scenario)`` grid cells.

    Axis insertion order is preserved, so cell order — and therefore
    scheduling order — is deterministic.  Cells carry no seed; the
    replication machinery derives ``seed0 + r`` per run.
    """
    if isinstance(base, str):
        from repro.pipeline.registry import get_scenario

        base = get_scenario(base)
    axes = dict(axes or {})
    if "seed" in axes:
        raise ValueError(
            "the replication machinery owns the 'seed' field (seeds run "
            "seed0 .. seed0+replications-1); sweep a different axis or "
            "adjust replications/seed0"
        )
    for axis, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(
                f"axis {axis!r} needs a non-empty list of values, got {values!r}"
            )
    cells: List[Tuple[str, Scenario]] = []
    names = list(axes)
    for combo in itertools.product(*(axes[name] for name in names)):
        overrides = dict(zip(names, combo))
        try:
            cell = base.derive(**overrides) if overrides else base
        except TypeError as exc:
            raise ValueError(
                f"unknown scenario field in sweep axes: {exc}"
            ) from None
        cells.append((cell.name, cell))
    return cells


def _replication_scenario(cell: Scenario, seed0: int, r: int) -> Scenario:
    """Replication ``r`` of a cell runs with seed ``seed0 + r`` — the
    same deterministic map in fixed and adaptive mode, so the two are
    seed-compatible on the replications they share."""
    seed = seed0 + r
    return cell.derive(name=f"{cell.name}#seed{seed}", seed=seed)


@dataclass(frozen=True)
class SweepJob:
    """One schedulable replication of a fixed sweep grid.

    ``index`` is the job's position in the dispatch order (the order
    serial :func:`run_sweep` would execute), ``address`` its content
    address — the fabric's cache / dedup / resume key.
    """

    index: int
    cell_index: int
    cell: str
    rep: int
    scenario: Scenario
    address: str


def fixed_jobs(
    base: Union[Scenario, str],
    axes: Optional[Dict[str, Sequence[Any]]] = None,
    replications: int = 1,
    seed0: int = 0,
) -> List[SweepJob]:
    """Decompose a fixed grid into content-addressed jobs.

    The jobs are the one round a fixed :func:`run_sweep` dispatches,
    :meth:`AdaptiveScheduler.initial_grants
    <repro.pipeline.adaptive.AdaptiveScheduler.initial_grants>`:
    replication-major (cell 0 rep 0, cell 1 rep 0, ..., cell 0 rep 1,
    ...), replication ``r`` with seed ``seed0 + r``.  A distributed
    executor that folds rows back in ``index`` order therefore
    reproduces serial :func:`run_sweep` bit for bit; the list is also
    the public way to inspect a grid without running it.
    """
    scheduler = AdaptiveScheduler(
        expand_cells(base, axes), min_replications=replications
    )
    jobs: List[SweepJob] = []
    for index, (cell, r) in enumerate(scheduler.initial_grants()):
        scenario = _replication_scenario(cell.scenario, seed0, r)
        jobs.append(
            SweepJob(
                index=index,
                cell_index=cell.index,
                cell=cell.name,
                rep=r,
                scenario=scenario,
                address=scenario.content_address(),
            )
        )
    return jobs


def study_row(cell: str, result: StudyResult, round_no: int) -> Dict[str, Any]:
    """One JSONL record / aggregation input per finished study.

    Every row carries the scenario's content address
    (:meth:`~repro.pipeline.scenario.Scenario.content_address`), so a
    streamed JSONL doubles as a content-addressed done-set: the fabric
    coordinator's ``--resume`` rebuilds its store from these lines.
    """
    cosim = result.stage("cosim")
    row: Dict[str, Any] = {
        "cell": cell,
        "scenario": result.scenario.name,
        "seed": result.scenario.seed,
        "address": result.scenario.content_address(),
        "round": round_no,
        "ok": result.ok,
        "duration": result.duration,
        "slot_count": result.slot_count,
    }
    if not result.ok:
        failed = next(r for r in result.stages if r.status == "failed")
        row["failed_stage"] = failed.name
        row["detail"] = failed.detail
    if cosim.ok:
        responses = [
            app["worst_response"]
            for app in cosim.artifact["applications"]
            if app["worst_response"] is not None
        ]
        row.update(
            {
                "qoc": cosim.artifact["qoc"],
                "worst_response": max(responses) if responses else None,
                "all_deadlines_met": cosim.artifact["all_deadlines_met"],
                "jitter_violations": cosim.artifact["jitter_violations"],
            }
        )
        if "loss" in cosim.artifact:
            row["lost_frames"] = cosim.artifact["loss"]["lost"]
    return row


def crash_row(
    cell: str, scenario: Scenario, round_no: int, exc: BaseException
) -> Dict[str, Any]:
    """Synthetic failed row for a replication that died *inside* the
    pool (worker crash, pickling error, non-domain exception) — the
    sweep keeps aggregating instead of losing every landed row.  The
    fabric coordinator reuses it for jobs whose lease expired past the
    attempt cap, so dead remote workers land in the same accounting."""
    return {
        "cell": cell,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "address": scenario.content_address(),
        "round": round_no,
        "ok": False,
        "duration": None,
        "slot_count": None,
        "failed_stage": "worker",
        "detail": repr(exc),
    }


@dataclass(frozen=True)
class CellStats:
    """Aggregated outcome of one sweep cell across its replications."""

    name: str
    runs: int
    failures: int
    deadlines_met_rate: Optional[float]
    metrics: Dict[str, Dict[str, float]]
    stopped_reason: Optional[str] = None
    rounds: int = 1
    saved: int = 0

    @classmethod
    def of(cls, state: CellState, saved: int = 0) -> "CellStats":
        """The statistics of one finished cell's accumulators."""
        return cls(
            name=state.name,
            runs=state.attempts,
            failures=state.failures,
            deadlines_met_rate=state.deadlines_met_rate(),
            metrics={
                metric: acc.to_dict()
                for metric, acc in state.stats.items()
                if acc.n > 0
            },
            stopped_reason=state.stopped_reason,
            rounds=state.rounds,
            saved=saved,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "runs": self.runs,
            "failures": self.failures,
            "deadlines_met_rate": self.deadlines_met_rate,
            "metrics": self.metrics,
            "stopped_reason": self.stopped_reason,
            "rounds": self.rounds,
            "saved": self.saved,
        }


@dataclass
class SweepResult:
    """Everything one sweep produced: raw rows plus per-cell statistics."""

    base: Scenario
    executor: str
    elapsed: float
    rows: List[Dict[str, Any]]
    cells: List[CellStats]
    results: List[StudyResult] = field(default_factory=list, repr=False)
    mode: str = "fixed"
    rounds: int = 1
    config: Dict[str, Any] = field(default_factory=dict)

    @property
    def run_count(self) -> int:
        return len(self.rows)

    @property
    def replications_spent(self) -> int:
        """Total replications dispatched (crashed attempts included)."""
        return len(self.rows)

    @property
    def replications_saved(self) -> int:
        """Replications early stopping left unspent vs. the per-cell cap."""
        return sum(cell.saved for cell in self.cells)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base_scenario": self.base.to_dict(),
            "executor": self.executor,
            "elapsed": self.elapsed,
            "mode": self.mode,
            "rounds": self.rounds,
            "config": dict(self.config),
            "replications_spent": self.replications_spent,
            "replications_saved": self.replications_saved,
            "runs": to_jsonable(self.rows),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def report(self) -> str:
        """ASCII summary: one row per cell, QoC mean +/- CI."""
        from repro.experiments.reporting import format_table

        rows = []
        for cell in self.cells:
            qoc = cell.metrics.get("qoc")
            resp = cell.metrics.get("worst_response")
            rows.append(
                [
                    cell.name,
                    cell.runs,
                    cell.failures,
                    "-"
                    if qoc is None
                    else f"{qoc['mean']:.4g} ± {qoc['ci95']:.2g}",
                    "-"
                    if resp is None
                    else f"{resp['mean']:.4g} ± {resp['ci95']:.2g}",
                    "-"
                    if cell.deadlines_met_rate is None
                    else f"{cell.deadlines_met_rate:.0%}",
                    cell.stopped_reason or "-",
                ]
            )
        table = format_table(
            ["cell", "runs", "failed", "QoC (mean ± CI95)",
             "worst response [s]", "deadlines met", "stopped"],
            rows,
        )
        head = (
            f"Sweep of {self.base.name!r}: {self.run_count} runs in "
            f"{self.elapsed:.1f}s ({self.executor} executor, {self.mode} "
            f"mode, {self.rounds} round{'s' if self.rounds != 1 else ''})"
        )
        if self.mode == "adaptive" and self.replications_saved:
            head += (
                f"\nadaptive stopping saved {self.replications_saved} "
                f"replications vs. the per-cell cap"
            )
        return f"{head}\n{table}"


def sweep_result(
    base: Scenario,
    scheduler: AdaptiveScheduler,
    rows: List[Dict[str, Any]],
    *,
    executor: str,
    elapsed: float,
    rounds: int,
    results: List[StudyResult],
    config: Optional[Dict[str, Any]] = None,
) -> SweepResult:
    """A finished sweep: ``rows`` in job order, folded in that order into
    ``scheduler``'s cells, and per-cell statistics from those cells.
    ``config`` defaults to the scheduler's knobs.  :func:`run_sweep` and
    the fabric coordinator both build their result here."""
    return SweepResult(
        base=base,
        executor=executor,
        elapsed=elapsed,
        rows=rows,
        cells=[CellStats.of(state, scheduler.saved(state)) for state in scheduler.cells],
        results=results,
        mode="adaptive" if scheduler.adaptive else "fixed",
        rounds=rounds,
        config=scheduler.config() if config is None else config,
    )


def open_jsonl(jsonl_path: Optional[str], mode: str = "w") -> Optional[IO[str]]:
    """UTF-8 stream with parent directories created on demand, so
    ``repro sweep -o out/rows.jsonl`` works on a fresh checkout.
    The fabric coordinator appends (``mode="a"``) when resuming, so the
    done-set it just adopted is not clobbered."""
    if jsonl_path is None:
        return None
    path = Path(jsonl_path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path.open(mode, encoding="utf-8")


def run_sweep(
    base: Union[Scenario, str],
    axes: Optional[Dict[str, Sequence[Any]]] = None,
    replications: int = 1,
    seed0: int = 0,
    executor: str = "thread",
    max_workers: Optional[int] = None,
    cache: Optional[DwellCurveCache] = None,
    jsonl_path: Optional[str] = None,
    keep_results: bool = True,
    ci_target: Optional[float] = None,
    ci_relative: bool = False,
    max_replications: Optional[int] = None,
    budget: Optional[int] = None,
) -> SweepResult:
    """Run a seeded replication grid and aggregate per-cell statistics.

    Parameters
    ----------
    base:
        Base scenario (object or registry name).
    axes:
        Scenario fields to cross into the grid, e.g.
        ``{"loss_rate": [0.0, 0.05]}``.
    replications:
        Fixed mode: seeded repeats per cell (seeds ``seed0..seed0+n-1``).
        Adaptive mode: the first-round minimum per cell (>= 2).
    executor:
        ``"thread"`` shares one in-process dwell cache (best when
        measurements dominate); ``"process"`` sidesteps the GIL for
        co-simulation-heavy grids and merges worker caches on return.
        Either pool hands each worker one contiguous chunk of a round,
        ``ceil(jobs / max_workers)`` jobs, and the worker co-simulates
        the chunk's compatible studies together; rows are bitwise those
        of serial runs (:class:`~repro.pipeline.runner.Dispatcher`).
    max_workers:
        Pool size; defaults to ``min(first round, usable CPUs)``, the
        CPUs being the process's affinity set where the platform has
        one.  ``1`` runs serially, study by study.
    jsonl_path:
        If given, stream one JSON line per finished study (written as
        it lands, per study serially and per chunk on a pool, so a long
        sweep is inspectable while running; parent directories are
        created, encoding is UTF-8).
    keep_results:
        Keep the full :class:`StudyResult` objects on the returned
        :class:`SweepResult` (set False for very large sweeps).
    ci_target:
        Enable adaptive stopping: a cell stops once the Student-t 95 %
        half-width of its QoC mean is <= this target (absolute, or a
        fraction of ``|mean|`` with ``ci_relative``), and its remaining
        budget is granted to the highest-variance open cells.
    ci_relative:
        Interpret ``ci_target`` relative to each cell's ``|mean|``.
    max_replications:
        Adaptive per-cell ceiling.
    budget:
        Adaptive global replication ceiling across all cells.  Adaptive
        mode requires ``max_replications`` and/or ``budget``.
    """
    cells = expand_cells(base, axes)
    if isinstance(base, str):
        from repro.pipeline.registry import get_scenario

        base_scenario = get_scenario(base)
    else:
        base_scenario = base
    dispatcher = Dispatcher(executor, max_workers, cache)
    scheduler = AdaptiveScheduler(
        cells,
        min_replications=replications,
        ci_target=ci_target,
        ci_relative=ci_relative,
        max_replications=max_replications,
        budget=budget,
    )
    jobs = scheduler.initial_grants()

    started = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    results: List[StudyResult] = []
    writer = open_jsonl(jsonl_path)
    round_no = 0
    try:
        while jobs:
            prepared = [
                (cell, _replication_scenario(cell.scenario, seed0, r))
                for cell, r in jobs
            ]
            outcomes = _run_round(dispatcher, prepared, round_no, writer)
            # Rows fold into the Welford accumulators in job order — a
            # deterministic order regardless of pool completion order,
            # so thread/process/serial sweeps agree bit-for-bit.
            for (cell, _), (row, result) in zip(prepared, outcomes):
                rows.append(row)
                cell.record(row)
                if keep_results and result is not None:
                    results.append(result)
            round_no += 1
            jobs = scheduler.next_grants()
    finally:
        dispatcher.close()
        if writer is not None:
            writer.close()
    return sweep_result(
        base_scenario,
        scheduler,
        rows,
        executor="serial" if dispatcher.serial else executor,
        elapsed=time.perf_counter() - started,
        rounds=round_no,
        results=results,
    )


def _run_round(
    dispatcher: Dispatcher,
    prepared: List[Tuple[CellState, Scenario]],
    round_no: int,
    writer: Optional[IO[str]],
) -> List[Optional[Tuple[Dict[str, Any], Optional[StudyResult]]]]:
    """Execute one dispatch round; returns ``(row, result)`` in job order.

    Each outcome the dispatcher lands becomes its row at once: a result
    its :func:`study_row`, and a replication that raised — in a worker
    process, a thread, or inline — a synthetic failed row
    (:func:`crash_row`, ``failed_stage="worker"``) rather than aborting
    the round.  Rows stream to ``writer`` as they land (per study
    serially, per chunk on a pool), while the returned list keeps job
    order for deterministic aggregation.
    """
    outcomes: List[Optional[Tuple[Dict[str, Any], Optional[StudyResult]]]] = [
        None
    ] * len(prepared)

    def land(index: int, outcome: Union[StudyResult, BaseException]):
        cell, scenario = prepared[index]
        if isinstance(outcome, BaseException):
            row = crash_row(cell.name, scenario, round_no, outcome)
            outcomes[index] = (row, None)
        else:
            row = study_row(cell.name, outcome, round_no)
            outcomes[index] = (row, outcome)
        if writer is not None:
            writer.write(json.dumps(to_jsonable(row)) + "\n")
            writer.flush()

    dispatcher.run([scenario for _, scenario in prepared], land)
    return outcomes


__all__ = [
    "CellStats",
    "METRICS",
    "SweepJob",
    "SweepResult",
    "crash_row",
    "expand_cells",
    "fixed_jobs",
    "run_sweep",
    "study_row",
]
