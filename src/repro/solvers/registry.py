"""Decorator-based registries for allocator and analysis-method backends.

Third parties extend the toolchain without touching the pipeline::

    from repro.solvers import register_allocator
    from repro.solvers.common import finalize_slots

    @register_allocator(
        "one-big-slot",
        summary="everything on a single shared slot (may be infeasible)",
        optimal=False,
        complexity="O(n^2) analyses",
    )
    def one_big_slot(apps, method="closed-form"):
        return finalize_slots([list(apps)], method)

The name is immediately valid everywhere a built-in is:
``Scenario(allocator="one-big-slot")`` validates against this registry,
``DesignStudy`` dispatches through it, and ``repro solvers`` lists it
with its capability metadata.  The keyword metadata are the fields of
:class:`~repro.solvers.types.AllocatorSpec` and
:class:`~repro.solvers.types.AnalysisMethodSpec`; both tables are
:class:`~repro.utils.registry.Registry` instances.
"""

from __future__ import annotations

from typing import Dict, List

from repro.solvers.types import (
    AllocatorSpec,
    AnalysisMethodSpec,
    UnknownSolverError,
)
from repro.utils.registry import Registry

# Populated by the backend modules' registration decorators when the
# package is imported: any `import repro.solvers.<anything>` first runs
# the package __init__, which imports every built-in backend module, so
# by the time a lookup below can execute the built-ins are registered.
ALLOCATOR_REGISTRY: Registry[AllocatorSpec] = Registry(
    "allocator", "registered allocators", UnknownSolverError
)
# "unknown method" is the historical prefix that downstream error
# handling (and tests) match on.
METHOD_REGISTRY: Registry[AnalysisMethodSpec] = Registry(
    "method", "registered analysis methods", UnknownSolverError
)

register_allocator = ALLOCATOR_REGISTRY.decorator(AllocatorSpec)
unregister_allocator = ALLOCATOR_REGISTRY.remove
get_allocator = ALLOCATOR_REGISTRY.get
allocator_names = ALLOCATOR_REGISTRY.names
allocators = ALLOCATOR_REGISTRY.entries

register_analysis_method = METHOD_REGISTRY.decorator(AnalysisMethodSpec)
unregister_analysis_method = METHOD_REGISTRY.remove
get_analysis_method = METHOD_REGISTRY.get
analysis_method_names = METHOD_REGISTRY.names
analysis_methods = METHOD_REGISTRY.entries


def allocate(name: str, apps, method: str = "closed-form", **options):
    """Run the named allocator: ``get_allocator(name)(apps, ...)``."""
    return get_allocator(name)(apps, method=method, **options)


def solver_table() -> Dict[str, List[Dict]]:
    """JSON-safe capability listing of every registered backend.

    The ``repro solvers`` CLI and the README's solver table derive from
    this single source of truth.
    """
    return {
        "allocators": [spec.to_dict() for spec in allocators()],
        "analysis_methods": [spec.to_dict() for spec in analysis_methods()],
    }


__all__ = [
    "ALLOCATOR_REGISTRY",
    "METHOD_REGISTRY",
    "allocate",
    "allocator_names",
    "allocators",
    "analysis_method_names",
    "analysis_methods",
    "get_allocator",
    "get_analysis_method",
    "register_allocator",
    "register_analysis_method",
    "solver_table",
    "unregister_allocator",
    "unregister_analysis_method",
]
