"""Executable conformance kit for the network-backend contract.

``check_network_model(factory)`` instantiates a backend (twice — the
factory must build *fresh, independently seeded* instances) and drives
it through a synthetic submission schedule, asserting the protocol
invariants the co-simulation kernels rely on:

* **surface** — the event interface, the hooks and the lifecycle
  methods exist, and deliveries are ``(name, release, delivery, lost)``
  tuples;
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
  along with the delivery state.

Use it from any test suite::

    from repro.sim.network import check_network_model
    check_network_model(lambda: MyBackend(...))

Raises ``ConformanceError`` (an ``AssertionError`` subclass, so plain
pytest reporting works) naming the violated invariant.
"""

from __future__ import annotations

import json
from typing import Any, Callable, List, Sequence, Tuple

from repro.flexray.frame import FrameSpec
from repro.sim.network.protocol import Delivery, Submission

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
            (spec.sender, spec, i % 2 == 0, time) for i, spec in enumerate(specs)
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
    for delivery in deliveries:
        _require(
            isinstance(delivery, tuple) and len(delivery) == 4,
            "deliveries are (name, release, delivery, lost) tuples",
            repr(delivery),
        )
    return deliveries


def _check_causality(deliveries: Sequence[Delivery]) -> None:
    # Release instants are matched on the integer-nanosecond grid, the
    # same coalescing rule the event kernel uses for its barriers.
    released = {}
    for _, submissions in _schedule():
        for name, _, _, release in submissions:
            released.setdefault(name, set()).add(round(release * 1e9))
    last_per_app: dict = {}
    for name, release, delivery, _ in deliveries:
        _require(
            name in released,
            "deliveries name submitted messages",
            f"unknown delivery {name!r}",
        )
        _require(
            round(release * 1e9) in released[name],
            "delivery release matches a submission",
            f"{name!r} at release {release}",
        )
        _require(
            delivery >= release - 1e-12,
            "no delivery before its submission",
            f"{name!r}: {delivery} < {release}",
        )
        previous = last_per_app.get(name, float("-inf"))
        _require(
            delivery >= previous - 1e-12,
            "per-application delivery instants are non-decreasing",
            f"{name!r}: {delivery} after {previous}",
        )
        last_per_app[name] = max(previous, delivery)


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
    ):
        _require(
            callable(getattr(network, method, None)),
            f"backend implements {method}()",
            type(network).__name__,
        )

    # -- first pass: causality + statistics -------------------------------
    first = _drive(network)
    _require(bool(first), "the synthetic schedule produces deliveries")
    _check_causality(first)
    _check_statistics(network)
    stats = network.statistics()
    lost = sum(1 for d in first if d[3])
    delivered = len(first) - lost
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


__all__ = ["ConformanceError", "check_network_model"]
