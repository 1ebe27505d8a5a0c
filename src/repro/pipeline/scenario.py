"""Declarative scenario description for the design-study pipeline.

A :class:`Scenario` is *data*: it names every knob of the paper's design
chain — where the applications come from, which dwell-model shape and
wait-time analysis to use, how to pack TT slots, the bus geometry, and
whether to verify by co-simulation — without executing anything.  The
:class:`~repro.pipeline.runner.DesignStudy` runner turns a scenario into
a :class:`~repro.pipeline.result.StudyResult`; because scenarios
round-trip to JSON they can be stored, diffed, swept over, and shipped
to batch executors.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.flexray.params import FlexRayConfig
from repro.sim.cosim import KERNELS

#: Where the application set comes from.
SOURCES = ("paper", "simulation", "multirate", "servo")
#: Dwell-model shapes supported by the characterisation pipeline.
DWELL_SHAPES = ("non-monotonic", "conservative-monotonic")
#: Built-in wait-time analysis methods.  Validation goes through the
#: :mod:`repro.solvers` registry, so third-party registrations are
#: accepted too; this tuple documents what ships in the box.
METHODS = ("closed-form", "fixed-point", "lower-bound")
#: Built-in TT-slot allocator backends (same registry-backed deal).
ALLOCATORS = (
    "first-fit",
    "best-fit",
    "worst-fit",
    "dedicated",
    "optimal",
    "branch-and-bound",
    "anneal",
)
#: Built-in co-simulation network backends.  Like METHODS/ALLOCATORS
#: this tuple documents what ships in the box; validation runs against
#: the live :mod:`repro.sim.network` registry, so third-party backends
#: registered with ``register_network`` are accepted too.
NETWORKS = ("analytic", "can", "flexray")
# Co-simulation kernels: KERNELS is re-exported from repro.sim.cosim
# (imported above) so the accepted names live in one place.  "auto"
# (default) runs the batch fast path; "event" the reference kernel.
# Both produce bitwise-identical traces, so the choice is purely about
# speed and diagnostics.
#: Disturbance arrival processes for the co-simulation stage.
DISTURBANCES = ("one-shot", "sporadic")


@dataclass(frozen=True)
class BusSpec:
    """Serializable FlexRay-cycle geometry (mirrors :class:`FlexRayConfig`)."""

    cycle_length: float = 0.005
    static_slots: int = 10
    static_slot_length: float = 0.0002
    minislot_length: float = 0.00001

    def to_config(self) -> FlexRayConfig:
        return FlexRayConfig(
            cycle_length=self.cycle_length,
            static_slots=self.static_slots,
            static_slot_length=self.static_slot_length,
            minislot_length=self.minislot_length,
        )

    @classmethod
    def from_config(cls, config: FlexRayConfig) -> "BusSpec":
        return cls(
            cycle_length=config.cycle_length,
            static_slots=config.static_slots,
            static_slot_length=config.static_slot_length,
            minislot_length=config.minislot_length,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BusSpec":
        return cls(**data)


@dataclass(frozen=True)
class Scenario:
    """One fully specified run of the paper's design chain.

    Attributes
    ----------
    name:
        Identifier (registry key and provenance tag).
    description:
        One-line human summary.
    source:
        ``"paper"`` (Table I parameters, verbatim), ``"simulation"``
        (plant-zoo roster characterised end-to-end), or ``"servo"``
        (the Figure 3 servo-rig testbed).
    apps:
        Optional subset of application/plant names to include;
        ``None`` means the full roster.
    dwell_shape:
        PWL dwell-model shape used for the analysis.
    method:
        Wait-time analysis method (any name in the
        :mod:`repro.solvers` analysis-method registry).
    allocator:
        TT-slot packing strategy (any name in the allocator registry).
        Names are validated at construction time, so deserializing a
        scenario that used a third-party backend requires importing the
        module that registers it first.
    deadline_scale:
        Multiplicative deadline-tightness factor (clamped to each
        application's minimum inter-arrival time).
    wait_step:
        Dwell-sweep stride in samples for characterised sources.
    bus:
        FlexRay geometry; ``None`` means the paper's 5 ms / 10-slot bus.
    cosim:
        Whether to run the co-simulation verification stage.
    network:
        Co-simulation network backend (any name in the
        :mod:`repro.sim.network` registry; ``"analytic"``,
        ``"flexray"`` and ``"can"`` ship in the box).  Like
        ``allocator``, names are validated at construction time against
        the live registry.
    horizon:
        Co-simulation length in seconds; ``None`` derives
        1.2x the largest deadline.
    kernel:
        Co-simulation kernel: ``"auto"`` (default; the batch fast path)
        or ``"event"`` (the reference kernel).  The cosim artifact's
        ``kernel_used`` names the kernel that ran (``"batch"`` or
        ``"event"``).  Traces are bitwise identical across kernels, so
        sweeps inherit the fast path for free.
    disturbance:
        Arrival process driving the co-simulation: ``"one-shot"`` (every
        plant disturbed once at ``t = 0``, the paper's Figure 5 setup)
        or ``"sporadic"`` (seeded random arrivals at each application's
        minimum inter-arrival spacing — the Monte-Carlo workload).
    seed:
        Base random seed for sporadic disturbance arrivals and FlexRay
        frame-loss injection; replication sweeps vary it per cell.
    loss_rate:
        Frame-corruption probability in ``[0, 1)``, fed to the network
        backend's seeded i.i.d. loss process (FlexRay's historical
        ``loss_rate``; the CAN backend wraps itself in
        :class:`~repro.sim.network.IIDLoss`; ignored by the analytic
        network).
    """

    name: str
    description: str = ""
    source: str = "paper"
    apps: Optional[Tuple[str, ...]] = None
    dwell_shape: str = "non-monotonic"
    method: str = "closed-form"
    allocator: str = "first-fit"
    deadline_scale: float = 1.0
    wait_step: int = 2
    bus: Optional[BusSpec] = None
    cosim: bool = False
    network: str = "analytic"
    horizon: Optional[float] = None
    kernel: str = "auto"
    disturbance: str = "one-shot"
    seed: int = 0
    loss_rate: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        _check_choice("source", self.source, SOURCES)
        _check_choice("dwell_shape", self.dwell_shape, DWELL_SHAPES)
        _check_registered_method(self.method)
        _check_registered_allocator(self.allocator)
        _check_registered_network(self.network)
        if self.apps is not None:
            object.__setattr__(self, "apps", tuple(str(a) for a in self.apps))
        if self.deadline_scale <= 0:
            raise ValueError(
                f"deadline_scale must be positive, got {self.deadline_scale}"
            )
        if int(self.wait_step) != self.wait_step or self.wait_step < 1:
            raise ValueError(f"wait_step must be an integer >= 1, got {self.wait_step}")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        _check_choice("kernel", self.kernel, KERNELS)
        _check_choice("disturbance", self.disturbance, DISTURBANCES)
        if int(self.seed) != self.seed:
            raise ValueError(f"seed must be an integer, got {self.seed}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must lie in [0, 1), got {self.loss_rate}"
            )

    def derive(self, name: Optional[str] = None, **changes: Any) -> "Scenario":
        """A modified copy (a grid point, a what-if variant, ...).

        ``name`` defaults to the parent name plus a summary of the
        overridden fields, so derived scenarios stay distinguishable in
        sweep outputs.
        """
        if name is None:
            summary = ",".join(f"{key}={value}" for key, value in sorted(changes.items()))
            name = f"{self.name}[{summary}]" if summary else self.name
        return dataclasses.replace(self, name=name, **changes)

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["apps"] = list(self.apps) if self.apps is not None else None
        data["bus"] = self.bus.to_dict() if self.bus is not None else None
        return data

    def fingerprint(self) -> str:
        """Semantic hash of the scenario, blind to labels and seed.

        Two scenarios share a fingerprint exactly when they describe the
        same computation: ``name`` and ``description`` are excluded (a
        rename must not bust result caches) and so is ``seed`` —
        replication machinery pairs the fingerprint with an explicit
        seed via :meth:`content_address`.
        """
        data = self.to_dict()
        data.pop("name")
        data.pop("description")
        data.pop("seed")
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def content_address(self) -> str:
        """``fingerprint+seed`` — the identity of one simulated row.

        This is the sweep fabric's cache key: a result row computed for
        this address is valid for *any* job with the same address, on
        any host, in any run, so reruns are cache hits and resumed
        sweeps can skip everything already on disk.
        """
        return f"{self.fingerprint()}+{int(self.seed)}"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        payload = dict(data)
        if payload.get("apps") is not None:
            payload["apps"] = tuple(payload["apps"])
        if payload.get("bus") is not None:
            payload["bus"] = BusSpec.from_dict(payload["bus"])
        return cls(**payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


def _check_choice(field_name: str, value: str, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(
            f"unknown {field_name} {value!r}; expected one of {list(choices)}"
        )


def _check_registered_allocator(value: str) -> None:
    """Validate against the live solver registry (not a frozen tuple),
    so an allocator registered by a third party is immediately a legal
    scenario value.  Imported lazily: the backends import ``repro.core``
    and must not load while this module does."""
    from repro.solvers import UnknownSolverError, get_allocator

    try:
        get_allocator(value)
    except UnknownSolverError as exc:
        raise ValueError(
            f"{exc} (register your own with repro.solvers.register_allocator)"
        ) from None


def _check_registered_method(value: str) -> None:
    """Same registry-backed validation for the wait-analysis method."""
    from repro.solvers import UnknownSolverError, get_analysis_method

    try:
        get_analysis_method(value)
    except UnknownSolverError as exc:
        raise ValueError(
            f"{exc} (register your own with repro.solvers.register_analysis_method)"
        ) from None


def _check_registered_network(value: str) -> None:
    """Same registry-backed validation for the network backend."""
    from repro.sim.network import UnknownNetworkError, get_network

    try:
        get_network(value)
    except UnknownNetworkError as exc:
        raise ValueError(
            f"{exc} (register your own with repro.sim.network.register_network)"
        ) from None


__all__ = [
    "ALLOCATORS",
    "BusSpec",
    "DISTURBANCES",
    "DWELL_SHAPES",
    "KERNELS",
    "METHODS",
    "NETWORKS",
    "SOURCES",
    "Scenario",
]
