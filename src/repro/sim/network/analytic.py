"""The constant-delay analytic network backend.

The design-time model under which the paper's controllers were
derived: TT messages arrive after the configured slot latency, ET
messages after the worst-case bound, independent of bus state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.sim.network.protocol import NetworkModel, Submission
from repro.sim.network.registry import register_network


@dataclass
class AnalyticNetwork(NetworkModel):
    """Constant worst-case delays (the design-time model)."""

    tt_delay: float = 0.0007
    et_delay: float = 0.020
    delivered: int = 0
    _pending: List[Submission] = field(
        init=False, repr=False, default_factory=list
    )

    def sample_delays(self, time, period, submissions):
        # The inherited default would report ``(time + d) - time``, which
        # is not always ``d`` in floating point.
        tt, et = min(self.tt_delay, period), min(self.et_delay, period)
        self.delivered += len(submissions)
        return {name: tt if uses_tt else et for name, _, uses_tt, _ in submissions}

    # -- event interface (multi-rate fleets) ------------------------------

    def event_submit(self, time, window_end, submissions):
        self._pending.extend(submissions)

    def event_advance(self, time):
        tt, et = self.tt_delay, self.et_delay
        out = [
            (name, release, release + (tt if uses_tt else et), False)
            for name, _, uses_tt, release in self._pending
        ]
        self._pending = []
        self.delivered += len(out)
        return out

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        self._pending = []
        self.delivered = 0

    def statistics(self) -> Dict[str, Any]:
        return {"delivered": self.delivered, "pending": len(self._pending)}


@register_network(
    "analytic",
    summary="constant design-time delays (TT slot latency / ET worst case)",
    deterministic=True,
    analytic_delays=True,
    loss="none",
)
def _build_analytic(
    *,
    bus: Any = None,
    loss_rate: float = 0.0,
    seed: int = 0,
    traffic: Any = None,
) -> AnalyticNetwork:
    """Factory: the analytic model has no bus and — historically —
    ignores ``loss_rate``/``seed``/``traffic`` (analytic scenarios have
    always simulated the loss-free design-time abstraction even when a
    sweep ranges a ``loss_rate`` axis over them)."""
    del bus, loss_rate, seed, traffic
    return AnalyticNetwork()


__all__ = ["AnalyticNetwork"]
