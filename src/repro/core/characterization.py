"""End-to-end characterisation: plant -> dwell curve -> timing parameters.

This is the pipeline that turns a physical application into a Table I
row: design both mode controllers, measure the dwell/wait relation by
sweeping the switch instant, fit the conservative PWL models, and read
off the timing parameters used by the schedulability analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.control.controller import SwitchedApplication, design_switched_application
from repro.control.plants import PlantDefinition
from repro.core.pwl import DwellCurve, PwlDwellModel
from repro.core.switching import (
    LinearSwitchedSystem,
    measure_dwell_curve,
    per_wait_source,
)
from repro.core.timing_params import TimingParameters
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CharacterizationResult:
    """Everything produced by characterising one application.

    Attributes
    ----------
    params:
        The derived Table-I-style timing parameters.
    curve:
        The measured dwell/wait relation.
    non_monotonic_model:
        Fitted two-segment upper bound (the paper's model).
    monotonic_model:
        Fitted conservative monotonic upper bound (prior work's model).
    """

    params: TimingParameters
    curve: DwellCurve
    non_monotonic_model: PwlDwellModel
    monotonic_model: PwlDwellModel


def characterize_curve(
    name: str,
    curve: DwellCurve,
    deadline: float,
    min_inter_arrival: float,
) -> CharacterizationResult:
    """Derive timing parameters from an already-measured dwell curve.

    The PWL fits come from :attr:`DwellCurve.fits`, derived once per
    curve, so only the timing parameters are built per call.
    """
    check_positive(deadline, "deadline")
    check_positive(min_inter_arrival, "min_inter_arrival")
    non_monotonic = curve.fits.non_monotonic
    monotonic = curve.fits.monotonic
    params = TimingParameters(
        name=name,
        min_inter_arrival=min_inter_arrival,
        deadline=deadline,
        xi_tt=curve.xi_tt,
        xi_et=non_monotonic.xi_et,
        xi_m=non_monotonic.max_dwell,
        k_p=non_monotonic.peak_wait,
        xi_m_mono=monotonic.max_dwell,
    )
    return CharacterizationResult(
        params=params,
        curve=curve,
        non_monotonic_model=non_monotonic,
        monotonic_model=monotonic,
    )


def characterize_application(
    app: SwitchedApplication,
    x0: np.ndarray,
    deadline: float,
    min_inter_arrival: float,
    wait_step: int = 1,
) -> CharacterizationResult:
    """Characterise a designed linear switched application (Eqs. 3-4)."""
    source = LinearSwitchedSystem.from_application(app, x0).response_source()
    curve = measure_dwell_curve(
        source,
        pure_et_response=source.pure_et_response(),
        period=app.period,
        wait_step=wait_step,
    )
    return characterize_curve(
        name=app.name,
        curve=curve,
        deadline=deadline,
        min_inter_arrival=min_inter_arrival,
    )


def characterize_plant(
    name: str,
    plant: PlantDefinition,
    et_delay: float,
    tt_delay: float,
    deadline: float,
    min_inter_arrival: float,
    wait_step: int = 1,
) -> CharacterizationResult:
    """Full pipeline from a plant definition (design + sweep + fit)."""
    app = design_switched_application(
        name=name,
        plant=plant.model,
        period=plant.period,
        et_delay=et_delay,
        tt_delay=tt_delay,
        q=plant.q,
        r=plant.r,
        threshold=plant.threshold,
    )
    return characterize_application(
        app,
        x0=plant.disturbance,
        deadline=deadline,
        min_inter_arrival=min_inter_arrival,
        wait_step=wait_step,
    )


def characterize_response_source(
    name: str,
    response_source: Callable[[int], float],
    pure_et_response: float,
    period: float,
    deadline: float,
    min_inter_arrival: float,
    wait_step: int = 1,
) -> CharacterizationResult:
    """Characterise a black-box testbed from a per-wait response callable.

    ``response_source`` maps ``wait_samples`` to the total response time
    in seconds; it is called once per swept wait (:func:`per_wait_source`).
    Sources that answer a whole wait array at once, such as
    :meth:`~repro.testbed.servo.ServoTestbed.response_source`, go to
    :func:`measure_dwell_curve` and :func:`characterize_curve` directly.
    """
    curve = measure_dwell_curve(
        per_wait_source(response_source),
        pure_et_response=pure_et_response,
        period=period,
        wait_step=wait_step,
    )
    return characterize_curve(
        name=name,
        curve=curve,
        deadline=deadline,
        min_inter_arrival=min_inter_arrival,
    )


__all__ = [
    "CharacterizationResult",
    "characterize_application",
    "characterize_curve",
    "characterize_plant",
    "characterize_response_source",
]
