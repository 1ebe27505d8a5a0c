"""Executable conformance kit for the network-backend contract.

``check_network_model(factory)`` instantiates a backend (twice — the
factory must build *fresh, independently seeded* instances) and drives
it through a synthetic submission schedule, asserting the protocol
invariants the co-simulation kernels rely on:

* **surface** — the event interface, lifecycle methods and a coherent
  :class:`~repro.sim.network.protocol.NetworkCapabilities` descriptor
  exist;
* **causality** — no delivery before its submission's release, none
  after the advance barrier (beyond the transport's boundary epsilon);
* **monotone time** — each application's delivery instants never
  decrease across successive ``event_advance`` calls (global order is
  deliberately not required: analytic transports report a message's
  future delivery instant at submission time);
* **seeded determinism** — two fresh instances replay identical
  delivery sequences (loss included);
* **reset idempotence** — after ``reset()`` the instance replays the
  same sequence again, and ``reset(); reset()`` is harmless;
* **statistics consistency** — ``statistics()`` is JSON-safe, its
  counters cover the reported deliveries, and ``reset()`` rewinds them
  along with the delivery state;
* **batch honesty** — an instance claiming the ``"analytic"`` batch
  strategy actually carries the constant-delay attributes the batch
  kernel replays, and one claiming ``"can"`` or ``"flexray"`` is a
  transport whose tuple core the batch kernel drives: for ``"can"`` a
  :class:`~repro.sim.network.can.CanBusNetwork`, or a stock
  :class:`~repro.sim.network.loss.LossyNetwork` whose ``inner`` is one;
  for ``"flexray"`` a :class:`~repro.sim.network.flexray.FlexRayNetwork`
  whose ``bus`` is a :class:`~repro.flexray.bus.FlexRayBus`.

Use it from any test suite::

    from repro.sim.network import check_network_model
    check_network_model(lambda: MyBackend(...))

Raises ``ConformanceError`` (an ``AssertionError`` subclass, so plain
pytest reporting works) naming the violated invariant.
"""

from __future__ import annotations

import json
from typing import Any, Callable, List, Sequence, Tuple

from repro.flexray.bus import FlexRayBus
from repro.flexray.frame import FrameSpec
from repro.sim.network.can import CanBusNetwork
from repro.sim.network.flexray import FlexRayNetwork
from repro.sim.network.loss import LossyNetwork
from repro.sim.network.protocol import (
    BATCH_STRATEGIES,
    Delivery,
    NetworkCapabilities,
    Submission,
)

#: Barrier spacing of the synthetic schedule (seconds).  Chosen to be
#: one paper bus cycle so slot-table transports deliver within a few
#: barriers of submission.
_PERIOD = 0.005

#: Number of barriers driven per pass.
_BARRIERS = 24


class ConformanceError(AssertionError):
    """A network backend violated the frozen protocol contract."""


def _require(condition: bool, invariant: str, detail: str = "") -> None:
    if not condition:
        message = f"network-backend conformance violated: {invariant}"
        if detail:
            message += f" ({detail})"
        raise ConformanceError(message)


def _schedule(n_apps: int = 3) -> List[Tuple[float, List[Submission]]]:
    """A deterministic multi-frame submission schedule.

    App ``i`` owns frame id ``i + 1`` (slot ``i``) and releases a
    message at every barrier; releases are exact multiples of the
    barrier period, mimicking the kernels' ``k * period`` grids.
    """
    specs = [
        FrameSpec(frame_id=i + 1, payload_bits=64, sender=f"conf-{i}")
        for i in range(n_apps)
    ]
    schedule = []
    for k in range(_BARRIERS):
        time = k * _PERIOD
        submissions = [
            Submission(
                name=spec.sender,
                spec=spec,
                uses_tt=(i % 2 == 0),
                slot=i,
                release_time=time,
            )
            for i, spec in enumerate(specs)
        ]
        schedule.append((time, submissions))
    return schedule


def _grant_slots(network: Any, n_apps: int = 3) -> None:
    """Announce slot ownership for TT-capable transports (no-op hooks
    swallow this on busless backends)."""
    for i in range(n_apps):
        spec = FrameSpec(frame_id=i + 1, payload_bits=64, sender=f"conf-{i}")
        network.on_slot_change(i, spec)


def _drive(network: Any) -> List[Delivery]:
    """Run the synthetic schedule; return all deliveries in order."""
    _grant_slots(network)
    schedule = _schedule()
    deliveries: List[Delivery] = []
    for time, submissions in schedule:
        window_end = time + _PERIOD
        network.event_submit(time, window_end, submissions)
        deliveries.extend(network.event_advance(window_end))
    # Drain: a final long advance flushes anything still on the wire.
    deliveries.extend(network.event_advance(schedule[-1][0] + 10 * _PERIOD))
    return deliveries


def _check_causality(deliveries: Sequence[Delivery]) -> None:
    # Release instants are matched on the integer-nanosecond grid, the
    # same coalescing rule the event kernel uses for its barriers.
    released = {}
    for time, submissions in _schedule():
        for sub in submissions:
            released.setdefault(sub.name, set()).add(round(sub.release_time * 1e9))
    last_per_app: dict = {}
    for delivery in deliveries:
        _require(
            delivery.name in released,
            "deliveries name submitted messages",
            f"unknown delivery {delivery.name!r}",
        )
        _require(
            round(delivery.release_time * 1e9) in released[delivery.name],
            "delivery release_time matches a submission",
            f"{delivery.name!r} at release {delivery.release_time}",
        )
        _require(
            delivery.delivery_time >= delivery.release_time - 1e-12,
            "no delivery before its submission",
            f"{delivery.name!r}: {delivery.delivery_time} < {delivery.release_time}",
        )
        previous = last_per_app.get(delivery.name, float("-inf"))
        _require(
            delivery.delivery_time >= previous - 1e-12,
            "per-application delivery instants are non-decreasing",
            f"{delivery.name!r}: {delivery.delivery_time} after {previous}",
        )
        last_per_app[delivery.name] = max(previous, delivery.delivery_time)


def _check_statistics(network: Any) -> None:
    stats = network.statistics()
    _require(isinstance(stats, dict), "statistics() returns a dict")
    try:
        json.dumps(stats)
    except (TypeError, ValueError) as exc:
        raise ConformanceError(
            f"network-backend conformance violated: statistics() must be "
            f"JSON-safe ({exc})"
        ) from None
    for key, value in stats.items():
        _require(
            isinstance(key, str),
            "statistics() keys are strings",
            repr(key),
        )
        _require(
            isinstance(value, (int, float)),
            "statistics() values are numeric counters",
            f"{key}={value!r}",
        )


def check_network_model(factory: Callable[[], Any]) -> None:
    """Assert the full protocol contract for one backend family.

    ``factory`` must build a **fresh** instance per call (same seed
    each time); the kit builds two for the determinism check.
    """
    network = factory()

    # -- surface ----------------------------------------------------------
    for method in (
        "event_submit",
        "event_advance",
        "sample_delays",
        "on_slot_change",
        "reset",
        "statistics",
        "capabilities",
    ):
        _require(
            callable(getattr(network, method, None)),
            f"backend implements {method}()",
            type(network).__name__,
        )
    caps = network.capabilities()
    _require(
        isinstance(caps, NetworkCapabilities),
        "capabilities() returns a NetworkCapabilities",
        repr(caps),
    )
    _require(
        caps.batch_strategy is None or caps.batch_strategy in BATCH_STRATEGIES,
        "batch_strategy is known to the batch kernel",
        repr(caps.batch_strategy),
    )
    if caps.batch_strategy == "analytic":
        _require(
            isinstance(getattr(network, "tt_delay", None), float)
            and isinstance(getattr(network, "et_delay", None), float),
            "claiming the analytic batch strategy requires tt_delay/et_delay",
            type(network).__name__,
        )
    if caps.batch_strategy == "can":
        bus = network.inner if type(network) is LossyNetwork else network
        _require(
            isinstance(bus, CanBusNetwork),
            "claiming the can batch strategy requires a CanBusNetwork, bare "
            "or inside a stock LossyNetwork",
            type(network).__name__,
        )
    if caps.batch_strategy == "flexray":
        _require(
            isinstance(network, FlexRayNetwork)
            and isinstance(network.bus, FlexRayBus),
            "claiming the flexray batch strategy requires a FlexRayNetwork "
            "on a FlexRayBus",
            type(network).__name__,
        )
    json.dumps(caps.to_dict())  # descriptor must serialize (CLI table)

    # -- first pass: causality + statistics -------------------------------
    first = _drive(network)
    _require(bool(first), "the synthetic schedule produces deliveries")
    _check_causality(first)
    _check_statistics(network)
    stats = network.statistics()
    delivered = sum(1 for d in first if not d.lost)
    lost = sum(1 for d in first if d.lost)
    if "lost" in stats:
        _require(
            int(stats["lost"]) == lost,
            "statistics()['lost'] counts lost deliveries",
            f"{stats['lost']} != {lost}",
        )
    if "delivered" in stats:
        _require(
            int(stats["delivered"]) >= delivered,
            "statistics()['delivered'] covers reported deliveries",
            f"{stats['delivered']} < {delivered}",
        )

    # -- seeded determinism -----------------------------------------------
    twin = factory()
    _require(
        twin is not network,
        "factory builds fresh instances",
        type(network).__name__,
    )
    _require(
        _drive(twin) == first,
        "two fresh instances replay identical delivery sequences",
        type(network).__name__,
    )

    # -- reset idempotence ------------------------------------------------
    network.reset()
    network.reset()  # double reset must be harmless
    replay = _drive(network)
    _require(
        replay == first,
        "reset() rewinds to the just-constructed state",
        type(network).__name__,
    )
    _check_statistics(network)
    _require(
        network.statistics() == stats,
        "reset() rewinds the statistics counters",
        f"{network.statistics()} != {stats}",
    )

    # -- capabilities stable across reset ---------------------------------
    network.reset()
    _require(
        network.capabilities() == caps,
        "capabilities() is stable across reset()",
        type(network).__name__,
    )


__all__ = ["ConformanceError", "check_network_model"]
