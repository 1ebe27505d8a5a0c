"""Experiment E2 — Figure 4: PWL dwell-model comparison.

Builds the three model shapes of the paper's Figure 4 from a measured
dwell curve and verifies their defining properties:

* the **non-monotonic** two-segment model and the **conservative
  monotonic** line both dominate the measurement (safe);
* the **simple monotonic** line does *not* (it under-estimates the dwell
  around the peak — the unsafety the paper warns about);
* the non-monotonic model is everywhere at or below the conservative
  monotonic one (tighter, hence the resource saving).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.pwl import (
    DwellCurve,
    PwlDwellModel,
    fit_concave_envelope,
    fit_conservative_monotonic,
    fit_two_segment,
    simple_monotonic,
)
from repro.experiments.fig3 import run_fig3
from repro.experiments.reporting import format_table


@dataclass(frozen=True)
class Fig4Result:
    """The three Figure 4 models (plus the N-segment extension)."""

    curve: DwellCurve
    non_monotonic: PwlDwellModel
    conservative_monotonic: PwlDwellModel
    simple: PwlDwellModel
    concave_envelope: PwlDwellModel

    def safety_table(self) -> list:
        """Rows: (model, dominates measurement?, max dwell, peak wait)."""
        rows = []
        for model in (
            self.non_monotonic,
            self.conservative_monotonic,
            self.simple,
            self.concave_envelope,
        ):
            rows.append(
                [
                    model.label,
                    model.dominates(self.curve),
                    model.max_dwell,
                    model.peak_wait,
                ]
            )
        return rows

    def tightness_gap(self) -> float:
        """Mean dwell overestimate of the monotonic model relative to the
        non-monotonic one, over the measured waits (seconds)."""
        waits = self.curve.waits
        monotonic = self.conservative_monotonic.dwell_array(waits)
        gaps = monotonic - self.non_monotonic.dwell_array(waits)
        return float(np.mean(gaps))

    def report(self) -> str:
        table = format_table(
            ["model", "dominates", "max dwell [s]", "peak wait [s]"],
            self.safety_table(),
        )
        return (
            "Figure 4 — PWL dwell models\n"
            f"{table}\n"
            f"mean monotonic over-estimate: {self.tightness_gap():.3f} s"
        )


def run_fig4(curve: Optional[DwellCurve] = None, wait_step: int = 2) -> Fig4Result:
    """Build the Figure 4 models (measuring the curve if not supplied)."""
    if curve is None:
        curve = run_fig3(wait_step=wait_step).curve
    non_monotonic = fit_two_segment(curve)
    conservative = fit_conservative_monotonic(curve)
    simple = simple_monotonic(curve.xi_tt, curve.xi_et)
    envelope = fit_concave_envelope(curve)
    return Fig4Result(
        curve=curve,
        non_monotonic=non_monotonic,
        conservative_monotonic=conservative,
        simple=simple,
        concave_envelope=envelope,
    )


__all__ = ["Fig4Result", "run_fig4"]
