"""Solver-backend contracts: errors, protocols, and capability metadata.

The solver API has two pluggable axes:

* **Allocators** pack analysed applications onto shared TT slots.  A
  backend is any callable satisfying :class:`Allocator`; registering it
  (:func:`repro.solvers.register_allocator`) attaches an
  :class:`AllocatorSpec` carrying capability metadata — whether the
  backend is exact, its complexity class, which analysis methods it
  supports, and its practical size limit — so pipelines and CLIs can
  introspect and validate without hard-coded name lists.
* **Analysis methods** compute the maximum wait time of an application
  on a shared slot from its (lower, higher) priority sharers.  The
  registry unifies the paper's closed-form bound, the exact fixed
  point, and the Eq. 21 lower bound behind one interface
  (:class:`AnalysisMethodSpec`).

All solver failures derive from :class:`SolverError`, itself a
:class:`ValueError`, so the CLI's existing domain-error handling (exit
code 2, no traceback) and the pipeline runner's failed-stage capture
apply to every backend uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.allocation import AllocationResult
    from repro.core.schedulability import AnalyzedApplication


class SolverError(ValueError):
    """Base class for domain errors raised by solver backends.

    Subclasses :class:`ValueError` so existing callers (the pipeline
    runner, the CLI's exit-code-2 mapping, legacy ``except ValueError``
    sites) keep working unchanged.
    """


class UnknownSolverError(SolverError):
    """An allocator or analysis-method name is not registered."""


class InstanceTooLargeError(SolverError):
    """The instance exceeds the backend's practical size limit."""


class InfeasibleAllocationError(SolverError):
    """No schedulable allocation exists for the given applications."""


class Allocator(Protocol):
    """Structural type every allocator backend implements.

    An allocator consumes analysed applications and returns an
    :class:`~repro.core.allocation.AllocationResult`; extra keyword
    options (seeds, size caps, iteration budgets) are backend-specific.
    """

    def __call__(
        self,
        apps: Sequence["AnalyzedApplication"],
        method: str = "closed-form",
        **options: Any,
    ) -> "AllocationResult":  # pragma: no cover - protocol signature
        ...


@dataclass(frozen=True)
class AllocatorSpec:
    """A registered allocator backend plus its capability metadata.

    Attributes
    ----------
    name:
        Registry key (also the :class:`~repro.pipeline.scenario.Scenario`
        ``allocator`` value).
    func:
        The backend callable (excluded from equality comparison).
    summary:
        One-line human description for listings.
    optimal:
        Whether the backend guarantees a minimum slot count.
    complexity:
        Informal complexity class (``"O(n^2) analyses"``, ``"Bell(n)"``,
        ...), for capability listings only.
    methods:
        Analysis methods the backend supports, stored as a tuple;
        ``None`` means every registered method.
    max_apps:
        Practical instance-size ceiling (``None`` = unbounded).  Purely
        informational here; backends enforce their own limits so callers
        can override per call.
    randomized:
        Whether results depend on a seed (heuristic local search).
    """

    name: str
    func: Callable[..., "AllocationResult"] = field(compare=False)
    summary: str = ""
    optimal: bool = False
    complexity: str = "unspecified"
    methods: Optional[Tuple[str, ...]] = None
    max_apps: Optional[int] = None
    randomized: bool = False

    def __post_init__(self) -> None:
        if self.methods is not None:
            object.__setattr__(self, "methods", tuple(self.methods))

    def supports_method(self, method: str) -> bool:
        return self.methods is None or method in self.methods

    def __call__(
        self,
        apps: Sequence["AnalyzedApplication"],
        method: str = "closed-form",
        **options: Any,
    ) -> "AllocationResult":
        if not self.supports_method(method):
            raise SolverError(
                f"allocator {self.name!r} does not support analysis method "
                f"{method!r}; supported: {list(self.methods or ())}"
            )
        return self.func(apps, method=method, **options)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe capability record (the callable is omitted)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "optimal": self.optimal,
            "complexity": self.complexity,
            "methods": list(self.methods) if self.methods is not None else None,
            "max_apps": self.max_apps,
            "randomized": self.randomized,
        }


@dataclass(frozen=True)
class AnalysisMethodSpec:
    """A registered maximum-wait analysis method plus metadata.

    Attributes
    ----------
    name:
        Registry key (also the scenario ``method`` value).
    func:
        ``func(lower_priority, higher_priority) -> max_wait`` in seconds;
        raises :class:`~repro.core.schedulability.UnschedulableError`
        when no finite wait bound exists.
    summary:
        One-line human description.
    exact:
        Whether the method computes the exact worst case.
    bound:
        ``"upper"``, ``"exact"``, or ``"lower"`` — how the value relates
        to the true maximum wait.
    safe:
        Whether the value may be used for deadline *guarantees*.  Lower
        bounds are unsafe: they are for gap studies and sanity checks,
        never admission.
    """

    name: str
    func: Callable[..., float] = field(compare=False)
    summary: str = ""
    exact: bool = False
    bound: str = "upper"
    safe: bool = True

    def __post_init__(self) -> None:
        if self.bound not in ("upper", "exact", "lower"):
            raise ValueError(
                f"bound must be 'upper', 'exact', or 'lower', got {self.bound!r}"
            )

    def __call__(
        self,
        lower_priority: Sequence["AnalyzedApplication"],
        higher_priority: Sequence["AnalyzedApplication"],
    ) -> float:
        return self.func(lower_priority, higher_priority)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "summary": self.summary,
            "exact": self.exact,
            "bound": self.bound,
            "safe": self.safe,
        }


__all__ = [
    "Allocator",
    "AllocatorSpec",
    "AnalysisMethodSpec",
    "InfeasibleAllocationError",
    "InstanceTooLargeError",
    "SolverError",
    "UnknownSolverError",
]
