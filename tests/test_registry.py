"""One registry contract: scenarios, allocators, analysis methods and
network backends register, look up, list and refuse names alike."""

import re
from operator import attrgetter
from typing import Callable, NamedTuple

import pytest

from repro.pipeline import Scenario, get_scenario, register_scenario, scenario_names, scenarios
from repro.pipeline.registry import SCENARIO_REGISTRY
from repro.sim.network import (
    UnknownNetworkError,
    get_network,
    network_names,
    networks,
    register_network,
    unregister_network,
)
from repro.solvers import (
    AllocatorSpec,
    AnalysisMethodSpec,
    UnknownSolverError,
    allocator_names,
    allocators,
    analysis_method_names,
    analysis_methods,
    get_allocator,
    get_analysis_method,
    register_allocator,
    register_analysis_method,
    unregister_allocator,
    unregister_analysis_method,
)

NAME = "zz-registry-contract"


class Table(NamedTuple):
    register: Callable  # (name, label, overwrite) -> None
    label: Callable  # entry -> the label it was registered with
    unregister: Callable
    get: Callable
    names: Callable
    entries: Callable
    error: type
    kind: str


def _scenario(name, label, overwrite):
    register_scenario(Scenario(name=name, description=label), overwrite=overwrite)


def _allocator(name, label, overwrite):
    register_allocator(name, summary=label, overwrite=overwrite)(
        lambda apps, method="closed-form": None
    )


def _method(name, label, overwrite):
    register_analysis_method(name, summary=label, overwrite=overwrite)(
        lambda lower, higher: 0.0
    )


def _network(name, label, overwrite):
    register_network(name, summary=label, overwrite=overwrite)(lambda **kwargs: None)


TABLES = {
    "scenario": Table(
        _scenario,
        attrgetter("description"),
        SCENARIO_REGISTRY.remove,
        get_scenario,
        scenario_names,
        scenarios,
        KeyError,
        "scenario",
    ),
    "allocator": Table(
        _allocator,
        attrgetter("summary"),
        unregister_allocator,
        get_allocator,
        allocator_names,
        allocators,
        UnknownSolverError,
        "allocator",
    ),
    "method": Table(
        _method,
        attrgetter("summary"),
        unregister_analysis_method,
        get_analysis_method,
        analysis_method_names,
        analysis_methods,
        UnknownSolverError,
        "method",
    ),
    "network": Table(
        _network,
        attrgetter("summary"),
        unregister_network,
        get_network,
        network_names,
        networks,
        UnknownNetworkError,
        "network backend",
    ),
}


@pytest.fixture(params=sorted(TABLES))
def table(request):
    table = TABLES[request.param]
    try:
        yield table
    finally:
        table.unregister(NAME)


def test_duplicate_name_is_refused_unless_overwritten(table):
    table.register(NAME, "first", False)
    with pytest.raises(ValueError, match="already registered"):
        table.register(NAME, "second", False)
    assert table.label(table.get(NAME)) == "first"
    table.register(NAME, "second", True)
    assert table.label(table.get(NAME)) == "second"


def test_unknown_name_raises_the_registry_error(table):
    with pytest.raises(table.error) as excinfo:
        table.get("no-such-name")
    message = excinfo.value.args[0]
    assert message.startswith(f"unknown {table.kind} 'no-such-name'; ")
    assert message.endswith(f": {sorted(table.names())}")


def test_remove_is_idempotent_and_listings_are_sorted(table):
    table.register(NAME, "entry", False)
    names = table.names()
    assert NAME in names and names == sorted(names)
    assert [entry.name for entry in table.entries()] == names
    table.unregister(NAME)
    table.unregister(NAME)
    assert NAME not in table.names()
    with pytest.raises(table.error):
        table.get(NAME)


@pytest.mark.parametrize(
    "field, hook",
    [
        ("allocator", "repro.solvers.register_allocator"),
        ("method", "repro.solvers.register_analysis_method"),
        ("network", "repro.sim.network.register_network"),
    ],
)
def test_scenario_refuses_an_unregistered_plugin_name(field, hook):
    with pytest.raises(ValueError, match=re.escape(f"(register your own with {hook})")):
        Scenario(name="x", **{field: "no-such-name"})


def test_spec_metadata_is_checked_and_normalised():
    with pytest.raises(ValueError, match="bound must be"):
        AnalysisMethodSpec(name="x", func=lambda lower, higher: 0.0, bound="sideways")
    spec = AllocatorSpec(name="x", func=lambda apps, method="closed-form": None, methods=["a"])
    assert spec.methods == ("a",)
