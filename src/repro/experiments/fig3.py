"""Experiment E1 — Figure 3: measured dwell/wait relation on the servo rig.

Sweeps the ET-to-TT switch instant on the (simulated) servo testbed and
records the dwell time needed after each wait, reproducing the paper's
experimental Figure 3.  The paper's measured anchors are
``xi_TT = 0.68 s`` and ``xi_ET = 2.16 s`` with the dwell peak around
``kwait = 0.3 s``; the reproduction target is the *shape* — dwell first
grows with the wait time, then falls to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.characterization import CharacterizationResult, characterize_curve
from repro.experiments.reporting import format_series, format_table

#: The paper's measured reference values (seconds).
PAPER_XI_TT = 0.68
PAPER_XI_ET = 2.16
PAPER_PEAK_WAIT = 0.3


@dataclass(frozen=True)
class Fig3Result:
    """Output of the Figure 3 experiment."""

    characterization: CharacterizationResult
    xi_tt: float
    xi_et: float

    @property
    def curve(self):
        return self.characterization.curve

    def is_non_monotonic(self) -> bool:
        """Whether an interior wait needs a longer dwell than zero wait
        (the paper's headline observation)."""
        return self.curve.dwells.max() > self.curve.xi_tt + 1e-9

    def report(self) -> str:
        curve = self.curve
        k_p, xi_m = curve.peak
        table = format_table(
            ["quantity", "paper", "measured"],
            [
                ["xi_TT [s]", PAPER_XI_TT, self.xi_tt],
                ["xi_ET [s]", PAPER_XI_ET, self.xi_et],
                ["peak dwell wait k_p [s]", PAPER_PEAK_WAIT, k_p],
                ["peak dwell xi_M [s]", "~0.95", xi_m],
                ["non-monotonic?", "yes", self.is_non_monotonic()],
            ],
        )
        plot = format_series(
            curve.waits,
            curve.dwells,
            x_label="kwait [s]",
            y_label="kdw [s]",
        )
        return f"Figure 3 — dwell vs wait (servo rig)\n{table}\n\n{plot}"


def run_fig3(wait_step: int = 2, max_samples: int = 400) -> Fig3Result:
    """Run the Figure 3 sweep on the tuned paper-matching servo testbed.

    The sweep is served from the pipeline's memoized cache, so repeated
    fig3/fig4 runs and scenario sweeps measure once.

    Parameters
    ----------
    wait_step:
        Sweep stride in samples (2 = every 40 ms).
    max_samples:
        Simulation horizon in samples.
    """
    from repro.pipeline import stages
    from repro.pipeline.cache import GLOBAL_DWELL_CACHE

    measured = GLOBAL_DWELL_CACHE.servo_measurement(
        wait_step=wait_step, max_samples=max_samples
    )
    # the fig3-servo scenario's characterize stage reads the same pair
    characterization = characterize_curve(
        name="servo-rig",
        curve=measured.curve,
        deadline=stages.SERVO_DEADLINE,
        min_inter_arrival=stages.SERVO_MIN_INTER_ARRIVAL,
    )
    return Fig3Result(
        characterization=characterization,
        xi_tt=measured.xi_tt,
        xi_et=measured.xi_et,
    )


__all__ = [
    "Fig3Result",
    "PAPER_PEAK_WAIT",
    "PAPER_XI_ET",
    "PAPER_XI_TT",
    "run_fig3",
]
