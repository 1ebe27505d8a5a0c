"""Adaptive Monte-Carlo replication scheduling for sweeps.

Fixed replication grids spend the same budget on every cell even though
variance is wildly heterogeneous: a deterministic one-shot disturbance
cell is fully characterised after two replications while a sporadic
high-loss cell may need dozens.  The classic sequential-stopping remedy
(e.g. Law, *Simulation Modeling and Analysis*) is to keep replicating a
cell only until the confidence half-width of its estimate reaches a
target, and to spend the freed budget where variance remains.

:class:`AdaptiveScheduler` implements that policy for
:func:`repro.pipeline.sweep.run_sweep`:

* replications are dispatched in **rounds**; between rounds each open
  cell's QoC statistics (incremental :class:`~repro.sim.stats.Welford`
  accumulators — no row re-scans) are checked against the stopping rule;
* a cell **stops** when its Student-t 95 % half-width falls to
  ``ci_target`` (absolute, or relative to ``|mean|``), when it reaches
  ``max_replications``, when the global ``budget`` runs out, or when
  every attempt failed;
* the budget freed by stopped cells is granted to the **highest-variance
  open cells** first, so precision is bought where it is cheapest to
  lose.

Seed discipline: replication ``r`` of a cell always runs with seed
``seed0 + r`` regardless of which round scheduled it, so adaptive and
fixed sweeps over the same grid draw identical sample paths for the
replications they share.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.pipeline.scenario import Scenario
from repro.sim.stats import Welford

#: Per-study metrics aggregated across a cell's replications.
METRICS = ("qoc", "worst_response", "jitter_violations", "duration")

#: Values ``CellState.stopped_reason`` can take once scheduling ends.
STOP_REASONS = ("fixed", "ci-target", "max-replications", "budget", "failed")


class CellState:
    """Mutable per-cell bookkeeping while a sweep is in flight.

    Holds one :class:`~repro.sim.stats.Welford` accumulator per metric
    (updated as each replication row lands, so cell statistics are always
    current in O(1)), failure/deadline counters, the next unscheduled
    replication index, and — once the scheduler retires the cell — the
    reason it stopped.
    """

    __slots__ = (
        "name",
        "scenario",
        "index",
        "stats",
        "attempts",
        "failures",
        "met_true",
        "met_seen",
        "next_rep",
        "last_round",
        "stopped_reason",
    )

    def __init__(self, name: str, scenario: Scenario, index: int):
        self.name = name
        self.scenario = scenario
        self.index = index
        self.stats: Dict[str, Welford] = {metric: Welford() for metric in METRICS}
        self.attempts = 0
        self.failures = 0
        self.met_true = 0
        self.met_seen = 0
        self.next_rep = 0
        self.last_round = -1
        self.stopped_reason: Optional[str] = None

    @property
    def qoc(self) -> Welford:
        return self.stats["qoc"]

    @property
    def rounds(self) -> int:
        """How many dispatch rounds this cell participated in."""
        return self.last_round + 1

    def record(self, row: Dict[str, Any]) -> None:
        """Fold one landed replication row into the running statistics."""
        self.attempts += 1
        self.last_round = max(self.last_round, int(row.get("round", 0)))
        if not row.get("ok", False):
            self.failures += 1
        for metric, acc in self.stats.items():
            value = row.get(metric)
            if value is not None:
                acc.push(float(value))
        met = row.get("all_deadlines_met")
        if met is not None:
            self.met_seen += 1
            self.met_true += bool(met)

    def deadlines_met_rate(self) -> Optional[float]:
        if self.met_seen == 0:
            return None
        return self.met_true / self.met_seen


class AdaptiveScheduler:
    """Round-based replication dispatcher with CI-driven early stopping.

    With ``ci_target=None`` the scheduler degenerates to the fixed grid:
    one round of ``min_replications`` per cell, after which every cell
    stops with reason ``"fixed"`` — :func:`~repro.pipeline.sweep.run_sweep`
    runs both modes through this single code path.

    Parameters
    ----------
    cells:
        ``(name, scenario)`` grid cells (seed-free; the runner derives
        per-replication seeds as ``seed0 + r``).
    min_replications:
        Replications every cell receives in round 0; in adaptive mode
        also the floor below which the stopping rule never fires
        (a CI from fewer than two samples is meaningless, so >= 2), and
        the nominal per-cell grant of every follow-up round.  A round's
        total pool is ``len(cells) * min_replications`` — stopped cells
        still contribute their share, which is what gets re-granted to
        high-variance cells.
    ci_target:
        QoC 95 % half-width at which a cell stops.  Interpreted as an
        absolute half-width, or as a fraction of ``|mean|`` when
        ``ci_relative`` is true.  ``None`` selects fixed mode.
    max_replications:
        Per-cell ceiling (adaptive mode).
    budget:
        Global ceiling on total replications across all cells
        (adaptive mode).  At least one of ``max_replications`` /
        ``budget`` must bound an adaptive sweep or a never-converging
        cell would replicate forever.
    """

    def __init__(
        self,
        cells: Sequence[Tuple[str, Scenario]],
        *,
        min_replications: int,
        ci_target: Optional[float] = None,
        ci_relative: bool = False,
        max_replications: Optional[int] = None,
        budget: Optional[int] = None,
    ):
        if not cells:
            raise ValueError("a sweep needs at least one cell")
        if min_replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {min_replications}"
            )
        if ci_target is None:
            if max_replications is not None or budget is not None:
                raise ValueError(
                    "max_replications/budget only apply to adaptive sweeps; "
                    "set ci_target to enable adaptive stopping"
                )
            if ci_relative:
                raise ValueError("ci_relative needs ci_target")
        else:
            if ci_target <= 0:
                raise ValueError(f"ci_target must be positive, got {ci_target}")
            if min_replications < 2:
                raise ValueError(
                    "adaptive mode needs replications >= 2 (a confidence "
                    "interval from one sample is meaningless)"
                )
            if max_replications is None and budget is None:
                raise ValueError(
                    "adaptive mode needs max_replications and/or budget — "
                    "without a cap a never-converging cell replicates forever"
                )
            if max_replications is not None and max_replications < min_replications:
                raise ValueError(
                    f"max_replications ({max_replications}) must be >= "
                    f"replications ({min_replications})"
                )
            if budget is not None and budget < 1:
                raise ValueError(f"budget must be >= 1, got {budget}")
        self.cells = [
            CellState(name, scenario, index)
            for index, (name, scenario) in enumerate(cells)
        ]
        self.min_replications = min_replications
        self.ci_target = ci_target
        self.ci_relative = ci_relative
        self.max_replications = max_replications
        self.budget = budget
        self.granted = 0

    # -- mode ---------------------------------------------------------

    @property
    def adaptive(self) -> bool:
        return self.ci_target is not None

    def config(self) -> Dict[str, Any]:
        """The scheduling knobs, for result provenance."""
        return {
            "mode": "adaptive" if self.adaptive else "fixed",
            "min_replications": self.min_replications,
            "ci_target": self.ci_target,
            "ci_relative": self.ci_relative,
            "max_replications": self.max_replications,
            "budget": self.budget,
            # the per-cell grant of follow-up rounds; sweep JSON keeps it
            "step": self.min_replications,
        }

    # -- stopping rule ------------------------------------------------

    def threshold(self, cell: CellState) -> float:
        """The half-width this cell must reach to stop on target."""
        assert self.ci_target is not None
        if self.ci_relative:
            return self.ci_target * abs(cell.qoc.mean)
        return self.ci_target

    def _close_finished(self) -> None:
        for cell in self.cells:
            if cell.stopped_reason is not None:
                continue
            qoc = cell.qoc
            if cell.attempts >= self.min_replications and qoc.n == 0:
                # every attempt failed; more seeds cannot produce a CI
                cell.stopped_reason = "failed"
            elif qoc.n >= self.min_replications and qoc.ci95() <= self.threshold(cell):
                cell.stopped_reason = "ci-target"
            elif (
                self.max_replications is not None
                and cell.next_rep >= self.max_replications
            ):
                cell.stopped_reason = "max-replications"

    def _open(self) -> List[CellState]:
        return [cell for cell in self.cells if cell.stopped_reason is None]

    def _headroom(self, cell: CellState) -> float:
        if self.max_replications is None:
            return math.inf
        return self.max_replications - cell.next_rep

    # -- grant rounds -------------------------------------------------

    def initial_grants(self) -> List[Tuple[CellState, int]]:
        """Round 0: ``min_replications`` per cell, budget permitting.

        Distribution is replication-major (cell 0 rep 0, cell 1 rep 0,
        ...), so a budget smaller than the grid clips every cell fairly
        instead of starving the last ones entirely.
        """
        budget_left = math.inf if self.budget is None else self.budget
        jobs: List[Tuple[CellState, int]] = []
        for _ in range(self.min_replications):
            for cell in self.cells:
                if budget_left <= 0:
                    break
                jobs.append((cell, cell.next_rep))
                cell.next_rep += 1
                budget_left -= 1
        self.granted = len(jobs)
        return jobs

    def next_grants(self) -> List[Tuple[CellState, int]]:
        """Retire finished cells, then grant the next round's budget.

        Returns ``[]`` when the sweep is complete; every cell then has a
        ``stopped_reason``.  Each returned grant is ``(cell, r)`` — run
        replication index ``r`` of that cell (seed ``seed0 + r``).
        """
        if not self.adaptive:
            for cell in self._open():
                cell.stopped_reason = "fixed"
            return []
        self._close_finished()
        open_cells = self._open()
        if not open_cells:
            return []
        pool = len(self.cells) * self.min_replications
        if self.budget is not None:
            pool = min(pool, self.budget - self.granted)
        if pool <= 0:
            for cell in open_cells:
                cell.stopped_reason = "budget"
            return []
        # Highest variance first; cells without two successful samples
        # yet rank ahead of everything (their variance is unknown and
        # they cannot stop until they have a CI at all).
        ranked = sorted(
            open_cells,
            key=lambda c: (
                -(math.inf if c.qoc.n < 2 else c.qoc.variance),
                c.index,
            ),
        )
        grants = {id(cell): 0 for cell in ranked}
        remaining = pool
        for cell in ranked:
            give = int(
                min(self.min_replications, self._headroom(cell), remaining)
            )
            grants[id(cell)] = give
            remaining -= give
        # Freed budget (stopped cells' share of the pool) goes to the
        # open cells one replication at a time, variance order.
        moved = True
        while remaining > 0 and moved:
            moved = False
            for cell in ranked:
                if remaining <= 0:
                    break
                if self._headroom(cell) - grants[id(cell)] > 0:
                    grants[id(cell)] += 1
                    remaining -= 1
                    moved = True
        jobs: List[Tuple[CellState, int]] = []
        for cell in ranked:
            for _ in range(grants[id(cell)]):
                jobs.append((cell, cell.next_rep))
                cell.next_rep += 1
        self.granted += len(jobs)
        return jobs

    # -- accounting ---------------------------------------------------

    def saved(self, cell: CellState) -> int:
        """Replications the stopping rule saved this cell vs. its cap."""
        if (
            self.max_replications is None
            or cell.stopped_reason not in ("ci-target", "failed")
        ):
            return 0
        return max(0, self.max_replications - cell.attempts)


__all__ = ["AdaptiveScheduler", "CellState", "METRICS", "STOP_REASONS"]
