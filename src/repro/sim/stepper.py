"""Plant stepping for the co-simulation: cached ZOH + stacked shapes.

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

:class:`PlantStepperBank` steps the event kernel's fleet over those
discretisations, each plant over its own; plants that share their
``(n_states, n_inputs)`` shape are merged into one batched
``(m, n, n) @ (m, n, 1)`` matmul per shape, gated by
:func:`stacked_safe`: a seeded per-shape probe that engages the stacked
formulation only where this platform's batched matmul is bitwise
identical, slice for slice, to the scalar products (reduction order is
shape-dependent, not value-dependent, so the probe decides once per
shape per process).  The batch kernel steps every plant with the scalar
products; the equality of the two kernels' traces therefore rests on
the :func:`stacked_safe` probe, which the batch-vs-event parity suites
exercise on the running platform.  So does the lockstep kernel's
(:func:`repro.sim.batch.run_lockstep`) batching of one application
across the studies of a sweep.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.control.discretization import delayed_gammas, zoh_integrals
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
    """Whether batched ``(m,n,n) @ (m,n,1)`` matmuls match the scalar
    per-plant products bitwise on this platform, for one plant shape.

    Two batched forms are probed, each against the scalar products it
    replaces:

    * the stepper bank's plant step across the plants of one shape,
      against ``phi @ x + gamma0 @ u + gamma1 @ u_prev``;
    * the lockstep kernel's (:func:`repro.sim.batch.run_lockstep`) on
      the rows of one ``[x | held]`` array: the control product
      ``(-K)[rows] @ Z[:, :, None]`` against ``(-K).dot(z)``, and the
      sweep with one shared ``Phi`` against the batch kernel's
      ``phi.dot(x)``, ``+= gamma0.dot(u)``, ``+= gamma1.dot(held)``.

    numpy may route the batched gufunc and the plain 2-D ``@`` through
    BLAS kernels whose multiply-adds fuse differently.  Such divergence
    is value-dependent but frequent under random inputs (several percent
    of samples on an affected platform), so a seeded probe with dozens
    of trials per batch height rejects an unsafe platform with
    overwhelming probability; a pass licenses the stacked formulations
    for all inputs of this ``(n_states, n_inputs)`` shape, decided once
    per shape per process.  The batched matmul loops over the stack one
    slice at a time, with the same BLAS call per slice, so a slice's
    bits do not depend on the stack's height.
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
            gains = rng.standard_normal((m, n_inputs, n_states + n_inputs))
            batched = (
                phis @ xs[:, :, None]
                + g0s @ us[:, :, None]
                + g1s @ ups[:, :, None]
            )
            z = np.concatenate((xs, ups), axis=1)
            controls = gains @ z[:, :, None]
            lockstep = phis[0][None] @ z[:, :n_states, None]
            lockstep += g0s @ controls
            lockstep += g1s @ z[:, n_states:, None]
            scalars = np.empty((2, m, n_states))
            scalar_controls = np.empty((m, n_inputs))
            for i in range(m):
                scalars[0, i] = phis[i] @ xs[i] + g0s[i] @ us[i] + g1s[i] @ ups[i]
                scalar_controls[i] = gains[i].dot(z[i])
                swept = phis[0].dot(xs[i])
                swept += g0s[i].dot(scalar_controls[i])
                swept += g1s[i].dot(ups[i])
                scalars[1, i] = swept
            if not (
                np.array_equal(batched[:, :, 0], scalars[0])
                and np.array_equal(controls[:, :, 0], scalar_controls)
                and np.array_equal(lockstep[:, :, 0], scalars[1])
            ):
                safe = False
                break
        if not safe:
            break
    _STACKED_PROBE[key] = safe
    return safe


def probe_verdicts() -> Dict[Tuple[int, int], bool]:
    """This process's :func:`stacked_safe` verdicts so far, by shape."""
    return dict(_STACKED_PROBE)


def adopt_probe_verdicts(verdicts: Dict[Tuple[int, int], bool]) -> None:
    """Take the :func:`stacked_safe` verdicts a process forked from this
    one reached (a local pool worker: the same platform and libraries),
    so later forks inherit them instead of probing again.  A verdict
    this process already holds stays."""
    for shape, safe in verdicts.items():
        _STACKED_PROBE.setdefault(shape, safe)


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
        pair = delayed_gammas(
            self.dynamics.a, self.dynamics.b, self.period, delay, self.gamma_full
        )
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
    """Steps a fleet of plants, each over its own cached discretisation.

    Plants that share their state/input shape are merged into one
    batched 3-D matmul per shape when :func:`stacked_safe` certifies the
    platform reproduces the scalar products bitwise; otherwise each
    steps with its own scalar products.
    """

    def __init__(self, cache: Optional[ZOHCache] = None):
        self._cache = cache if cache is not None else GLOBAL_ZOH_CACHE
        self._members: Dict[str, _PlantDiscretization] = {}
        self.scalar_steps = 0
        self.stacked_steps = 0

    def register(
        self, name: str, dynamics: ContinuousStateSpace, period: float
    ) -> None:
        self._members[name] = self._cache.plant(dynamics, period)

    def step_all(
        self,
        states: Dict[str, np.ndarray],
        requests: Dict[str, Tuple[np.ndarray, np.ndarray, float]],
    ) -> None:
        """Advance every requested plant one interval, in place.

        ``requests`` maps application name to ``(u, u_prev, delay)``.
        ``states`` is mutated with the post-interval states.

        Plants are mutually independent within one instant, and the
        stacked 3-D matmul is used only where the :func:`stacked_safe`
        probe holds, so every state written is bitwise that of the
        scalar ``phi @ x + gamma0 @ u + gamma1 @ u_prev``.
        """
        unknown = [name for name in requests if name not in self._members]
        if unknown:
            raise KeyError(
                f"step requested for unregistered application(s) {sorted(unknown)}"
            )
        steps = []
        for name, (_, _, delay) in requests.items():
            disc = self._members[name]
            steps.append((name, disc.phi, *disc.gammas(delay)))
        scalar = steps
        if len(steps) >= 2:
            by_shape: Dict[Tuple[int, int], List[Tuple]] = {}
            for entry in steps:
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
    "adopt_probe_verdicts",
    "delay_key",
    "probe_verdicts",
    "stacked_safe",
]
