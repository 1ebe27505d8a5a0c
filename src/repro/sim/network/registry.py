"""Decorator registry of co-simulable network backends.

Mirrors :mod:`repro.solvers.registry`: backends register a *factory*
under a short name together with family metadata, and everything
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

    def build(self, **kwargs: Any) -> Any:
        return self.factory(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "summary": self.summary,
            "deterministic": self.deterministic,
            "analytic_delays": self.analytic_delays,
            "loss": self.loss,
        }


_NETWORK_REGISTRY: Dict[str, NetworkSpec] = {}


def register_network(
    name: str,
    *,
    summary: str = "",
    deterministic: bool = True,
    analytic_delays: bool = False,
    loss: str = "none",
    overwrite: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class decorator/registration hook for network-backend factories."""

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        if name in _NETWORK_REGISTRY and not overwrite:
            raise ValueError(
                f"network backend {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        _NETWORK_REGISTRY[name] = NetworkSpec(
            name=name,
            factory=factory,
            summary=summary,
            deterministic=deterministic,
            analytic_delays=analytic_delays,
            loss=loss,
        )
        return factory

    return decorator


def unregister_network(name: str) -> None:
    """Remove a backend (primarily for test isolation)."""
    _NETWORK_REGISTRY.pop(name, None)


def get_network(name: str) -> NetworkSpec:
    """Look up a backend spec by name, or raise :class:`UnknownNetworkError`."""
    try:
        return _NETWORK_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_NETWORK_REGISTRY)) or "<none>"
        raise UnknownNetworkError(
            f"unknown network backend {name!r}; registered: {known}"
        ) from None


def build_network(name: str, **kwargs: Any) -> Any:
    """Build a backend instance by registry name.

    Keyword arguments follow the factory contract (``bus``,
    ``loss_rate``, ``seed``, ``traffic``); only pass what you mean —
    factories reject unsupported combinations.
    """
    return get_network(name).build(**kwargs)


def network_names() -> List[str]:
    """Sorted names of all registered backends."""
    return sorted(_NETWORK_REGISTRY)


def networks() -> List[NetworkSpec]:
    """All registered specs, sorted by name."""
    return [_NETWORK_REGISTRY[name] for name in network_names()]


def network_table() -> List[Dict[str, Any]]:
    """JSON-safe rows for the ``repro networks`` CLI table."""
    return [spec.to_dict() for spec in networks()]


__all__ = [
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
