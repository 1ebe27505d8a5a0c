"""Decorator registry of co-simulable network backends.

A :class:`~repro.utils.registry.Registry`, like the solver tables in
:mod:`repro.solvers.registry`: backends register a *factory* under a
short name together with family metadata (the fields of
:class:`NetworkSpec`), and everything
downstream — ``Scenario.network`` validation, the pipeline's
``stage_cosim``, the ``repro networks`` CLI table, QA004's literal
resolution, and the CI conformance job — resolves backends through
this module instead of hardcoding classes.

Registering a third-party backend::

    from repro.sim.network import register_network

    @register_network(
        "tsn",
        summary="802.1Qbv time-aware shaper",
        deterministic=True,
    )
    def build_tsn(*, bus=None, loss_rate=0.0, seed=0, traffic=None):
        return TsnNetwork(...)

The factory contract is keyword-only: ``bus`` (a scenario-level bus
configuration or ``None`` for the backend's default), ``loss_rate`` /
``seed`` (loss process), and ``traffic`` (optional background-traffic
generator).  Factories must raise ``ValueError`` for combinations they
do not support rather than silently ignoring them — except ``analytic``
which historically ignores loss and traffic (documented below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.utils.registry import Registry


class UnknownNetworkError(KeyError):
    """Raised when a network-backend name is not in the registry."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class NetworkSpec:
    """Registry entry: factory plus static metadata describing the
    backend *family* (what the CLI table and docs show).

    ``deterministic`` means delivery instants are a pure function of the
    submissions (seeded loss is reproducible but not deterministic in
    this sense), ``analytic_delays`` that delays are state-independent
    per-mode constants, and ``loss`` names the loss model the factory's
    ``loss_rate`` wires up (``"none"`` when it ignores it).
    """

    name: str
    factory: Callable[..., Any] = field(repr=False)
    summary: str = ""
    deterministic: bool = True
    analytic_delays: bool = False
    loss: str = "none"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "summary": self.summary,
            "deterministic": self.deterministic,
            "analytic_delays": self.analytic_delays,
            "loss": self.loss,
        }


NETWORK_REGISTRY: Registry[NetworkSpec] = Registry(
    "network backend", "registered", UnknownNetworkError
)

register_network = NETWORK_REGISTRY.decorator(NetworkSpec)
unregister_network = NETWORK_REGISTRY.remove
get_network = NETWORK_REGISTRY.get
network_names = NETWORK_REGISTRY.names
networks = NETWORK_REGISTRY.entries


def build_network(name: str, **kwargs: Any) -> Any:
    """Build a backend instance by registry name.

    Keyword arguments follow the factory contract (``bus``,
    ``loss_rate``, ``seed``, ``traffic``); only pass what you mean —
    factories reject unsupported combinations.
    """
    return get_network(name).factory(**kwargs)


def network_table() -> List[Dict[str, Any]]:
    """JSON-safe rows for the ``repro networks`` CLI table."""
    return [spec.to_dict() for spec in networks()]


__all__ = [
    "NETWORK_REGISTRY",
    "NetworkSpec",
    "UnknownNetworkError",
    "build_network",
    "get_network",
    "network_names",
    "network_table",
    "networks",
    "register_network",
    "unregister_network",
]
