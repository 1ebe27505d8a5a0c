"""Scenario registry: the paper's setups plus user registrations.

Pre-populated with declarative versions of the paper's artefacts —
Table I, the Section V allocation variants, the Figure 3/4 servo
characterisation, and the Figure 5 co-simulation — so

>>> from repro.pipeline import DesignStudy, get_scenario
>>> DesignStudy(get_scenario("paper-table1")).run().slot_count
3

reproduces the headline result.  :func:`scenario_grid` expands any base
scenario into a sweep over deadline tightness, dwell-model shape, and
allocator — the batch workload :func:`~repro.pipeline.runner.run_many`
is built for.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.pipeline.scenario import BusSpec, Scenario
from repro.utils.registry import Registry

SCENARIO_REGISTRY: Registry[Scenario] = Registry("scenario", "registered")

get_scenario = SCENARIO_REGISTRY.get
scenario_names = SCENARIO_REGISTRY.names
scenarios = SCENARIO_REGISTRY.entries


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add a scenario to the registry (keyed by its name)."""
    return SCENARIO_REGISTRY.add(scenario.name, scenario, overwrite)


def scenario_grid(
    base: Union[Scenario, str] = "paper-table1",
    deadline_scales: Sequence[float] = (0.75, 1.0, 1.5),
    dwell_shapes: Sequence[str] = ("non-monotonic", "conservative-monotonic"),
    allocators: Sequence[str] = ("first-fit", "best-fit"),
    **overrides,
) -> List[Scenario]:
    """Expand a base scenario into a full sweep grid.

    The default axes (3 scales x 2 shapes x 2 allocators) yield 12
    scenarios.  Extra keyword overrides (e.g. ``wait_step=8`` or
    ``apps=("servo-rig",)``) are applied to every grid point.
    """
    if isinstance(base, str):
        base = get_scenario(base)
    grid = []
    for scale in deadline_scales:
        for shape in dwell_shapes:
            for allocator in allocators:
                grid.append(
                    base.derive(
                        name=(
                            f"{base.name}@scale={scale:g}"
                            f"/{shape}/{allocator}"
                        ),
                        deadline_scale=scale,
                        dwell_shape=shape,
                        allocator=allocator,
                        **overrides,
                    )
                )
    return grid


# ---------------------------------------------------------------------------
# Built-in scenarios (the paper's artefacts, declaratively).
# ---------------------------------------------------------------------------

register_scenario(
    Scenario(
        name="paper-table1",
        description=(
            "Table I applications, non-monotonic dwell model, Section V "
            "first-fit allocation (expected: 3 TT slots)"
        ),
        source="paper",
    )
)
register_scenario(
    Scenario(
        name="paper-table1-monotonic",
        description=(
            "Table I under prior work's conservative monotonic model "
            "(expected: 5 TT slots, +67% resources)"
        ),
        source="paper",
        dwell_shape="conservative-monotonic",
    )
)
register_scenario(
    Scenario(
        name="paper-table1-fixed-point",
        description="Table I analysed with the exact Eq. 5 fixed point",
        source="paper",
        method="fixed-point",
    )
)
register_scenario(
    Scenario(
        name="paper-table1-optimal",
        description="Table I packed by exhaustive minimum-slot search",
        source="paper",
        allocator="optimal",
    )
)
register_scenario(
    Scenario(
        name="paper-table1-bnb",
        description=(
            "Table I packed by the branch-and-bound exact search "
            "(same optimum as exhaustive, scales to ~20 apps)"
        ),
        source="paper",
        allocator="branch-and-bound",
    )
)
register_scenario(
    Scenario(
        name="paper-table1-anneal",
        description=(
            "Table I packed by the seeded annealing heuristic "
            "(the large-fleet backend, on the small roster)"
        ),
        source="paper",
        allocator="anneal",
    )
)
register_scenario(
    Scenario(
        name="paper-table1-dedicated",
        description="Table I baseline: one dedicated TT slot per application",
        source="paper",
        allocator="dedicated",
    )
)
register_scenario(
    Scenario(
        name="fig3-servo",
        description=(
            "Figure 3: dwell/wait characterisation of the servo rig, "
            "non-monotonic PWL fit"
        ),
        source="servo",
    )
)
register_scenario(
    Scenario(
        name="fig4-servo-monotonic",
        description=(
            "Figure 4 companion: the servo curve under the conservative "
            "monotonic model"
        ),
        source="servo",
        dwell_shape="conservative-monotonic",
    )
)
register_scenario(
    Scenario(
        name="sim-table1",
        description=(
            "Table I analogue: six plant-zoo applications characterised "
            "end-to-end (paper simulation mode)"
        ),
        source="simulation",
    )
)
register_scenario(
    Scenario(
        name="sim-table1-monotonic",
        description="Simulated roster under the conservative monotonic model",
        source="simulation",
        dwell_shape="conservative-monotonic",
    )
)
register_scenario(
    Scenario(
        name="fig5-cosim",
        description=(
            "Figure 5: co-simulated disturbance rejection over the "
            "cycle-accurate FlexRay bus"
        ),
        source="simulation",
        cosim=True,
        network="flexray",
    )
)
register_scenario(
    Scenario(
        name="fig5-cosim-analytic",
        description=(
            "Figure 5 over the analytic worst-case network (fast, "
            "deterministic)"
        ),
        source="simulation",
        cosim=True,
        network="analytic",
    )
)
register_scenario(
    Scenario(
        name="multirate-cosim",
        description=(
            "Multi-rate fleet — a 2 ms motor current loop beside 20 ms "
            "chassis loops — co-simulated over a 1 ms-cycle FlexRay bus "
            "(the batch kernel drives the bus's own cycle core)"
        ),
        source="multirate",
        cosim=True,
        network="flexray",
        bus=BusSpec(
            cycle_length=0.001,
            static_slots=3,
            static_slot_length=0.0002,
            minislot_length=0.00001,
        ),
    )
)
register_scenario(
    Scenario(
        name="multirate-cosim-analytic",
        description=(
            "Multi-rate fleet over the analytic worst-case network "
            "(fast, deterministic)"
        ),
        source="multirate",
        cosim=True,
        network="analytic",
    )
)
register_scenario(
    Scenario(
        name="can-cosim",
        description=(
            "Figure 5 fleet co-simulated over a priority-arbitrated "
            "500 kbit/s CAN bus (non-preemptive, lowest frame id wins; "
            "the batch kernel drives the bus's own arbitration core)"
        ),
        source="simulation",
        cosim=True,
        network="can",
    )
)


__all__ = [
    "SCENARIO_REGISTRY",
    "get_scenario",
    "register_scenario",
    "scenario_grid",
    "scenario_names",
    "scenarios",
]
