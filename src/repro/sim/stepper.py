"""Plant stepping for the co-simulation: cached ZOH + stacked states.

Stepping a plant over one sampling interval needs the exact delayed
zero-order-hold discretisation ``(Phi, Gamma0(d), Gamma1(d))`` of its
continuous dynamics.  Computing those matrix exponentials is the
dominant per-sample cost of a co-simulation run, and every run of the
same scenario grid re-derives the *same* matrices: the delays a message
actually experiences land on a handful of values (the design offsets,
the period, the bus-cycle quantisation).  :class:`ZOHCache` therefore
memoizes discretisations process-wide, keyed by the plant's dynamics
bytes, the sampling period and the delay (on the 0.1 us grid the
original co-simulator used) — so a 32-scenario Monte-Carlo sweep pays
for each matrix exponential once, not once per run.

:class:`PlantStepperBank` layers fleet-level stepping on top: it groups
applications by identical ``(dynamics, period)`` and, whenever several
group members step with the same delay in the same sampling instant,
advances their stacked state rows with one matrix product instead of one
per application.  Plants that remain singletons after that grouping —
*different* dynamics sharing only their ``(n_states, n_inputs)`` shape —
are additionally merged into one batched ``(m, n, n) @ (m, n, 1)``
matmul per shape, gated by :func:`stacked_safe`: a seeded per-shape
probe that engages the stacked formulation only where this platform's
batched matmul is bitwise identical, slice for slice, to the scalar
products (reduction order is shape-dependent, not value-dependent, so
the probe decides once per shape per process).  The event-driven
kernel routes all stepping through one bank.  The batch kernel stacks
same-dynamics, same-delay buckets exactly the way the bank does, but
steps every singleton with the scalar products; for stacked plants of
different dynamics, the equality of the two kernels' traces therefore
rests on the :func:`stacked_safe` probe, which the batch-vs-event
parity suites exercise on the running platform.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.control.discretization import zoh_integrals
from repro.control.lti import ContinuousStateSpace


def _dynamics_key(dynamics: ContinuousStateSpace) -> Tuple:
    """Hashable fingerprint of the continuous dynamics (exact bytes)."""
    a = np.ascontiguousarray(dynamics.a, dtype=float)
    b = np.ascontiguousarray(dynamics.b, dtype=float)
    return (a.shape, a.tobytes(), b.shape, b.tobytes())


def delay_key(delay: float) -> int:
    """Quantise a delay onto the 0.1 us cache grid."""
    return int(round(delay * 1e7))


_STACKED_PROBE: Dict[Tuple[int, int], bool] = {}


def stacked_safe(n_states: int, n_inputs: int) -> bool:
    """Whether batched ``(m,n,n) @ (m,n,1)`` matmul matches the scalar
    per-plant products bitwise on this platform, for one plant shape.

    numpy may route the batched gufunc and the plain 2-D ``@`` through
    BLAS kernels whose multiply-adds fuse differently.  Such divergence
    is value-dependent but frequent under random inputs (several percent
    of samples on an affected platform), so a seeded probe with dozens
    of trials per batch height rejects an unsafe platform with
    overwhelming probability; a pass licenses the stacked formulation
    for all inputs of this ``(n_states, n_inputs)`` shape, decided once
    per shape per process.
    """
    key = (n_states, n_inputs)
    cached = _STACKED_PROBE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(0x5AFE)
    safe = True
    for m in (2, 3, 4, 5, 8, 16):
        for _ in range(32):
            phis = rng.standard_normal((m, n_states, n_states))
            g0s = rng.standard_normal((m, n_states, n_inputs))
            g1s = rng.standard_normal((m, n_states, n_inputs))
            xs = rng.standard_normal((m, n_states))
            us = rng.standard_normal((m, n_inputs))
            ups = rng.standard_normal((m, n_inputs))
            batched = (
                phis @ xs[:, :, None]
                + g0s @ us[:, :, None]
                + g1s @ ups[:, :, None]
            )
            if not all(
                np.array_equal(
                    batched[i, :, 0],
                    phis[i] @ xs[i] + g0s[i] @ us[i] + g1s[i] @ ups[i],
                )
                for i in range(m)
            ):
                safe = False
                break
        if not safe:
            break
    _STACKED_PROBE[key] = safe
    return safe


class _PlantDiscretization:
    """Cached ``Phi``/``Gamma`` family of one ``(dynamics, period)`` pair."""

    def __init__(self, dynamics: ContinuousStateSpace, period: float):
        self.dynamics = dynamics
        self.period = period
        self.phi, self.gamma_full = zoh_integrals(dynamics.a, dynamics.b, period)
        self.pairs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def gammas(self, delay: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(Gamma0(d), Gamma1(d))`` for one intra-sample delay."""
        key = delay_key(delay)
        cached = self.pairs.get(key)
        if cached is not None:
            return cached
        delay = min(max(delay, 0.0), self.period)
        if delay <= 0.0:
            pair = (self.gamma_full, np.zeros_like(self.gamma_full))
        elif delay >= self.period:
            pair = (np.zeros_like(self.gamma_full), self.gamma_full)
        else:
            exp_trail, gamma0 = zoh_integrals(
                self.dynamics.a, self.dynamics.b, self.period - delay
            )
            _, gamma_lead = zoh_integrals(self.dynamics.a, self.dynamics.b, delay)
            pair = (gamma0, exp_trail @ gamma_lead)
        self.pairs[key] = pair
        return pair


class ZOHCache:
    """Process-wide memo of delayed-ZOH discretisations.

    Thread-safe; concurrent lookups of a missing entry may both compute
    it (the matrix exponential is deterministic, so last-write-wins is
    harmless) but never corrupt the table.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._plants: Dict[Tuple, _PlantDiscretization] = {}
        self._hits = 0
        self._misses = 0

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "plants": len(self._plants),
                "delay_entries": sum(
                    len(p.pairs) for p in self._plants.values()
                ),
                "hits": self._hits,
                "misses": self._misses,
            }

    def clear(self) -> None:
        with self._lock:
            self._plants.clear()
            self._hits = 0
            self._misses = 0

    def plant(
        self, dynamics: ContinuousStateSpace, period: float
    ) -> _PlantDiscretization:
        """The cached discretisation family for ``(dynamics, period)``."""
        key = (_dynamics_key(dynamics), round(period, 12))
        with self._lock:
            entry = self._plants.get(key)
            if entry is not None:
                self._hits += 1
                return entry
            self._misses += 1
        entry = _PlantDiscretization(dynamics, period)
        with self._lock:
            return self._plants.setdefault(key, entry)


#: Shared across every co-simulation in the process (and, under a forked
#: process pool, inherited warm by the workers).
GLOBAL_ZOH_CACHE = ZOHCache()


class PlantStepperBank:
    """Steps a fleet of plants, vectorizing same-dynamics groups.

    Applications registered with identical ``(dynamics, period)`` share
    one cached discretisation; when two or more of them step with the
    same delay at the same instant, their states are advanced as stacked
    rows with a single matrix product per term.  Plants left over as
    singletons — heterogeneous dynamics sharing only their state/input
    shape — are merged into one batched 3-D matmul per shape when
    :func:`stacked_safe` certifies the platform reproduces the scalar
    products bitwise; otherwise they step with per-application products.
    """

    def __init__(self, cache: Optional[ZOHCache] = None):
        self._cache = cache if cache is not None else GLOBAL_ZOH_CACHE
        self._members: Dict[str, Tuple[Tuple, _PlantDiscretization]] = {}
        self._groups: Dict[Tuple, List[str]] = {}
        self.vector_steps = 0
        self.scalar_steps = 0
        self.stacked_steps = 0

    def register(
        self, name: str, dynamics: ContinuousStateSpace, period: float
    ) -> None:
        key = (_dynamics_key(dynamics), round(period, 12))
        self._members[name] = (key, self._cache.plant(dynamics, period))
        self._groups.setdefault(key, []).append(name)

    def step_all(
        self,
        states: Dict[str, np.ndarray],
        requests: Dict[str, Tuple[np.ndarray, np.ndarray, float]],
    ) -> None:
        """Advance every requested plant one interval, in place.

        ``requests`` maps application name to ``(u, u_prev, delay)``.
        ``states`` is mutated with the post-interval states.
        """
        remaining = set(requests)
        solos: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
        for members in self._groups.values():
            due = [name for name in members if name in remaining]
            if not due:
                continue
            remaining.difference_update(due)
            disc = self._members[due[0]][1]
            by_delay: Dict[int, List[str]] = {}
            for name in due:
                by_delay.setdefault(delay_key(requests[name][2]), []).append(name)
            for names in by_delay.values():
                gamma0, gamma1 = disc.gammas(requests[names[0]][2])
                if len(names) == 1:
                    solos.append((names[0], disc.phi, gamma0, gamma1))
                else:
                    x = np.stack([states[name] for name in names])
                    u = np.stack([requests[name][0] for name in names])
                    u_prev = np.stack([requests[name][1] for name in names])
                    advanced = (
                        x @ disc.phi.T + u @ gamma0.T + u_prev @ gamma1.T
                    )
                    for row, name in enumerate(names):
                        states[name] = advanced[row]
                    self.vector_steps += len(names)
        if remaining:
            raise KeyError(
                f"step requested for unregistered application(s) {sorted(remaining)}"
            )
        if solos:
            self._step_solos(states, requests, solos)

    def _step_solos(
        self,
        states: Dict[str, np.ndarray],
        requests: Dict[str, Tuple[np.ndarray, np.ndarray, float]],
        solos: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        """Step the plants that ended up alone in their (group, delay)
        bucket, stacking same-shape ones across different dynamics.

        Plants are mutually independent within one instant, so deferring
        the singleton steps behind the vectorized groups cannot change
        any value; the stacked 3-D matmul is used only where the
        :func:`stacked_safe` probe holds, so the states it writes are
        bitwise those of the scalar products.
        """
        scalar = solos
        if len(solos) >= 2:
            by_shape: Dict[Tuple[int, int], List[Tuple]] = {}
            for entry in solos:
                by_shape.setdefault(
                    (entry[1].shape[0], entry[2].shape[1]), []
                ).append(entry)
            scalar = []
            for shape, entries in by_shape.items():
                if len(entries) >= 2 and stacked_safe(*shape):
                    phis = np.stack([e[1] for e in entries])
                    g0s = np.stack([e[2] for e in entries])
                    g1s = np.stack([e[3] for e in entries])
                    x = np.stack([states[e[0]] for e in entries])[:, :, None]
                    u = np.stack([requests[e[0]][0] for e in entries])
                    u_prev = np.stack([requests[e[0]][1] for e in entries])
                    advanced = (
                        phis @ x + g0s @ u[:, :, None] + g1s @ u_prev[:, :, None]
                    )
                    for row, entry in enumerate(entries):
                        states[entry[0]] = advanced[row, :, 0]
                    self.stacked_steps += len(entries)
                else:
                    scalar.extend(entries)
        for name, phi, gamma0, gamma1 in scalar:
            u, u_prev, _ = requests[name]
            states[name] = phi @ states[name] + gamma0 @ u + gamma1 @ u_prev
            self.scalar_steps += 1


__all__ = [
    "GLOBAL_ZOH_CACHE",
    "PlantStepperBank",
    "ZOHCache",
    "delay_key",
    "stacked_safe",
]
