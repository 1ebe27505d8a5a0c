"""Memoized dwell-curve measurements — the sweep hot path.

Measuring a dwell/wait curve means designing both mode controllers and
simulating the switched closed loop from every candidate switch instant
(one stacked pass per application).  Every scenario in a
grid sweep that shares (plant, ET detuning, stride) re-measures the
*same* curve — deadlines, dwell-model shape, analysis method and
allocator all apply downstream of the measurement — so the cache keys on
exactly those three inputs and serves everything else from memory.

The cache is thread-safe and single-flight: concurrent
:func:`~repro.pipeline.runner.run_many` workers asking for the same key
block on one in-flight measurement instead of duplicating it.
"""

from __future__ import annotations

import base64
import pickle
import threading
import zlib
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.control.controller import SwitchedApplication, design_mode_controller
from repro.control.plants import PlantDefinition, make_plant
from repro.core.pwl import DwellCurve
from repro.core.switching import LinearSwitchedSystem, measure_dwell_curve
from repro.testbed.servo import ServoRigConfig, ServoTestbed, default_servo_testbed

#: TT-mode sensor-to-actuator delay (the paper's 0.7 ms).
TT_DELAY = 0.0007


@dataclass(frozen=True)
class MeasuredApplication:
    """A designed switched application plus its measured dwell curve."""

    plant: PlantDefinition
    app: SwitchedApplication
    curve: DwellCurve


@dataclass(frozen=True)
class ServoMeasurement:
    """Servo-rig sweep output: curve plus the raw mode response times."""

    curve: DwellCurve
    xi_tt: float
    xi_et: float
    period: float


class DwellCurveCache:
    """Single-flight memo cache for dwell-curve measurements."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[Tuple, Future] = {}
        self._hits = 0
        self._misses = 0

    @property
    def hits(self) -> int:
        """Number of lookups served from memory (or an in-flight run)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of lookups that had to measure."""
        return self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def keys_snapshot(self) -> set:
        """The cache keys currently present (completed or in flight)."""
        with self._lock:
            return set(self._entries)

    def export_entries(self, exclude=frozenset()) -> Dict[Tuple, object]:
        """Completed measurements, keyed for :meth:`merge_entries`.

        Process-pool workers call this after each study and ship only
        the entries *they* measured (``exclude`` holds what the worker
        already had or already shipped), so the parent can fold worker
        caches back into the shared one.
        """
        with self._lock:
            items = list(self._entries.items())
        return {
            key: future.result()
            for key, future in items
            if key not in exclude and future.done() and future.exception() is None
        }

    def merge_entries(self, entries: Dict[Tuple, object]) -> int:
        """Adopt measurements computed elsewhere; returns how many were new."""
        added = 0
        with self._lock:
            for key, value in entries.items():
                if key in self._entries:
                    continue
                future: Future = Future()
                future.set_result(value)
                self._entries[key] = future
                added += 1
        return added

    def _get_or_measure(self, key: Tuple, measure):
        """Return ``(value, hit)``; ``hit`` attributes this call exactly
        once so per-caller stats stay correct under concurrency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = Future()
                self._entries[key] = entry
                self._misses += 1
                owner = True
            else:
                self._hits += 1
                owner = False
        if not owner:
            return entry.result(), True
        try:
            value = measure()
        except BaseException as exc:
            with self._lock:
                self._entries.pop(key, None)
            entry.set_exception(exc)
            raise
        entry.set_result(value)
        return value, False

    def measurement_info(
        self, plant_name: str, et_detuning: float, wait_step: int = 2
    ) -> Tuple[MeasuredApplication, bool]:
        """Like :meth:`measurement`, also reporting whether this call hit."""
        key = ("plant", plant_name, float(et_detuning), int(wait_step))
        return self._get_or_measure(
            key, lambda: _measure_plant(plant_name, et_detuning, wait_step)
        )

    def measurement(
        self, plant_name: str, et_detuning: float, wait_step: int = 2
    ) -> MeasuredApplication:
        """Design the mode controllers and measure the dwell curve for one
        plant-zoo application (memoized)."""
        return self.measurement_info(plant_name, et_detuning, wait_step)[0]

    def servo_measurement_info(
        self,
        threshold: Optional[float] = None,
        wait_step: int = 2,
        max_samples: int = 400,
    ) -> Tuple[ServoMeasurement, bool]:
        """Like :meth:`servo_measurement`, also reporting a per-call hit."""
        key = (
            "servo",
            None if threshold is None else float(threshold),
            int(wait_step),
            int(max_samples),
        )
        return self._get_or_measure(
            key, lambda: _measure_servo(threshold, wait_step, max_samples)
        )

    def servo_measurement(
        self,
        threshold: Optional[float] = None,
        wait_step: int = 2,
        max_samples: int = 400,
    ) -> ServoMeasurement:
        """Sweep the (simulated) servo rig's dwell curve (memoized)."""
        return self.servo_measurement_info(threshold, wait_step, max_samples)[0]

    def characterized_info(
        self,
        plant_name: str,
        et_detuning: float,
        min_inter_arrival: float,
        deadline: float,
        wait_step: int = 2,
    ):
        """Like :meth:`characterized`, also reporting a per-call hit."""
        from repro.core.characterization import characterize_curve
        from repro.experiments.casestudy import CaseStudyApplication

        measured, hit = self.measurement_info(plant_name, et_detuning, wait_step)
        characterization = characterize_curve(
            name=plant_name,
            curve=measured.curve,
            deadline=deadline,
            min_inter_arrival=min_inter_arrival,
        )
        case_app = CaseStudyApplication(
            plant=measured.plant, app=measured.app, characterization=characterization
        )
        return case_app, hit

    def characterized(
        self,
        plant_name: str,
        et_detuning: float,
        min_inter_arrival: float,
        deadline: float,
        wait_step: int = 2,
    ):
        """A fully characterised case-study application.

        The measurement is cached, and its curve keeps its PWL fits and
        their dominance verdicts (:attr:`~repro.core.pwl.DwellCurve.fits`,
        derived on first use), so they travel with the entry through
        :meth:`export_entries`.  Only the timing parameters are derived
        per requested deadline, so deadline sweeps share one measurement
        and one pair of fits per plant.
        """
        return self.characterized_info(
            plant_name, et_detuning, min_inter_arrival, deadline, wait_step
        )[0]


def encode_entries(entries: Dict[Tuple, object]) -> str:
    """Pack :meth:`DwellCurveCache.export_entries` output for the wire.

    The sweep fabric ships dwell-cache entries between coordinator and
    workers inside line-delimited JSON messages; measurements carry
    numpy arrays and nested dataclasses, so the payload is pickled,
    compressed, and base64-armoured into a JSON-safe string.
    """
    return base64.b64encode(
        zlib.compress(pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL))
    ).decode("ascii")


def decode_entries(blob: str) -> Dict[Tuple, object]:
    """Inverse of :func:`encode_entries`; feed to :meth:`merge_entries`."""
    return pickle.loads(zlib.decompress(base64.b64decode(blob.encode("ascii"))))


def _measure_plant(
    plant_name: str, et_detuning: float, wait_step: int
) -> MeasuredApplication:
    plant = make_plant(plant_name)
    tt = design_mode_controller(
        plant.model, period=plant.period, delay=TT_DELAY, q=plant.q, r=plant.r
    )
    et = design_mode_controller(
        plant.model,
        period=plant.period,
        delay=plant.period,
        q=plant.q,
        r=np.asarray(plant.r) * et_detuning,
    )
    app = SwitchedApplication(name=plant_name, et=et, tt=tt, threshold=plant.threshold)
    source = LinearSwitchedSystem.from_application(app, plant.disturbance).response_source()
    curve = measure_dwell_curve(
        source,
        pure_et_response=source.pure_et_response(),
        period=app.period,
        wait_step=wait_step,
    )
    return MeasuredApplication(plant=plant, app=app, curve=curve)


def _measure_servo(
    threshold: Optional[float], wait_step: int, max_samples: int
) -> ServoMeasurement:
    if threshold is None:
        testbed = default_servo_testbed()
    else:
        testbed = default_servo_testbed(ServoRigConfig(threshold=threshold))
    return measure_servo(testbed, wait_step, max_samples)


def measure_servo(
    testbed: ServoTestbed, wait_step: int = 2, max_samples: int = 400
) -> ServoMeasurement:
    """Sweep a servo testbed's dwell curve in one stacked pass.

    The pure-ET run is the sweep's shared ET row, and the zero-wait point
    of the curve is the pure-TT run, so ``xi_et``, ``xi_tt`` and every
    curve point come from the same simulation.
    """
    source = testbed.response_source(max_samples=max_samples)
    xi_et = source.pure_et_response()
    curve = measure_dwell_curve(
        source,
        pure_et_response=xi_et,
        period=testbed.config.period,
        wait_step=wait_step,
    )
    return ServoMeasurement(
        curve=curve, xi_tt=curve.xi_tt, xi_et=xi_et, period=testbed.config.period
    )


#: Process-wide default cache shared by the pipeline runner, the
#: experiment drivers and the CLI.  Pass a private cache to
#: :class:`~repro.pipeline.runner.DesignStudy` for isolation.
GLOBAL_DWELL_CACHE = DwellCurveCache()


__all__ = [
    "DwellCurveCache",
    "GLOBAL_DWELL_CACHE",
    "MeasuredApplication",
    "ServoMeasurement",
    "TT_DELAY",
    "decode_entries",
    "encode_entries",
    "measure_servo",
]
