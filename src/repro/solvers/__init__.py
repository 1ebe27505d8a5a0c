"""Pluggable solver backends: allocator & wait-analysis registries.

The slot-sharing toolchain's two extension points as first-class,
introspectable registries:

* **Allocators** (:func:`register_allocator` / :func:`get_allocator`) —
  strategies packing analysed applications onto shared TT slots.
  Built-ins: the paper's ``first-fit`` plus ``best-fit``, ``worst-fit``,
  the ``dedicated`` baseline, the exhaustive ``optimal`` search, the
  scalable exact ``branch-and-bound``, and the ``anneal`` heuristic for
  100+ app fleets.
* **Analysis methods** (:func:`register_analysis_method` /
  :func:`get_analysis_method`) — maximum-wait characterisations:
  ``closed-form`` (Eq. 20), ``fixed-point`` (exact Eq. 5), and
  ``lower-bound`` (Eq. 21, gap studies only).

Every registered name is a valid ``Scenario(allocator=..., method=...)``
value, dispatched by the pipeline with no further wiring; capability
metadata (exactness, complexity, size limits) is queryable via
:func:`solver_table` and the ``repro solvers`` CLI.

Quickstart — writing a custom allocator::

    from repro.solvers import register_allocator
    from repro.solvers.common import finalize_slots, require_fits_alone
    from repro.core.timing_params import priority_order

    @register_allocator(
        "next-fit",
        summary="only ever try the most recently opened slot",
        optimal=False,
        complexity="O(n) slot analyses",
    )
    def next_fit(apps, method="closed-form"):
        from repro.core.schedulability import is_slot_schedulable
        slots = []
        for app in priority_order(apps):
            if slots and is_slot_schedulable(slots[-1] + [app], method=method):
                slots[-1].append(app)
            else:
                require_fits_alone(app, method)
                slots.append([app])
        return finalize_slots(slots, method)

    from repro.pipeline import DesignStudy, get_scenario
    study = DesignStudy(
        get_scenario("paper-table1").derive(allocator="next-fit")
    ).run()
"""

from repro.solvers.registry import (
    allocate,
    allocator_names,
    allocators,
    analysis_method_names,
    analysis_methods,
    get_allocator,
    get_analysis_method,
    register_allocator,
    register_analysis_method,
    solver_table,
    unregister_allocator,
    unregister_analysis_method,
)
from repro.solvers.common import (
    FeasibilityCache,
    finalize_slots,
    greedy_first_fit_indices,
    require_fits_alone,
)
from repro.solvers.types import (
    Allocator,
    AllocatorSpec,
    AnalysisMethodSpec,
    InfeasibleAllocationError,
    InstanceTooLargeError,
    SolverError,
    UnknownSolverError,
)

# Importing the backend modules registers the built-ins; any
# `import repro.solvers.<module>` runs this file first, so no lookup can
# miss them.
from repro.solvers import analysis as _analysis  # noqa: F401
from repro.solvers import anneal as _anneal  # noqa: F401
from repro.solvers import branch_and_bound as _branch_and_bound  # noqa: F401
from repro.solvers import classic as _classic  # noqa: F401

__all__ = [
    "Allocator",
    "AllocatorSpec",
    "AnalysisMethodSpec",
    "FeasibilityCache",
    "InfeasibleAllocationError",
    "InstanceTooLargeError",
    "SolverError",
    "UnknownSolverError",
    "allocate",
    "allocator_names",
    "allocators",
    "analysis_method_names",
    "analysis_methods",
    "finalize_slots",
    "get_allocator",
    "get_analysis_method",
    "greedy_first_fit_indices",
    "register_allocator",
    "register_analysis_method",
    "require_fits_alone",
    "solver_table",
    "unregister_allocator",
    "unregister_analysis_method",
]
