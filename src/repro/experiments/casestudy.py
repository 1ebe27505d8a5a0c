"""Case-study application sets (paper Section V).

Two flavours:

* **paper mode** — the six Table I applications taken verbatim
  (:data:`repro.core.timing_params.PAPER_TABLE_I`).  The paper
  publishes only their timing parameters, which is all the
  schedulability analysis needs; this mode reproduces Section V
  *exactly*.
* **simulation mode** — six automotive plants from the plant zoo,
  designed and characterised end-to-end with this library.  Their
  absolute numbers differ from Table I (the authors never disclosed
  their plants) but the qualitative result — the non-monotonic model
  needs fewer TT slots than the conservative monotonic one — is
  reproduced from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.control.controller import SwitchedApplication
from repro.control.plants import PlantDefinition
from repro.core.characterization import CharacterizationResult
from repro.core.timing_params import TimingParameters

if TYPE_CHECKING:
    from repro.pipeline.result import StudyAttachments

#: Simulation-mode roster: (plant name, ET detuning factor, min inter-arrival,
#: deadline).  The detuning factor multiplies the LQR input weight of the
#: ET-mode controller, modelling the deliberately low-bandwidth designs
#: used over the jittery dynamic segment.
SIMULATION_CASE_STUDY: Tuple[Tuple[str, float, float, float], ...] = (
    ("cruise-control", 500.0, 200.0, 40.0),
    ("active-suspension", 300.0, 20.0, 10.0),
    ("lateral-dynamics", 2000.0, 15.0, 2.0),
    ("electric-power-steering", 500.0, 200.0, 7.5),
    ("throttle-by-wire", 800.0, 20.0, 8.5),
    ("servo-rig", 1000.0, 6.0, 6.0),
)

#: Multi-rate roster (same tuple layout): a 2 ms motor current loop
#: beside three 20 ms chassis loops.  Exercises the co-simulation
#: kernels' multi-rate mode (per-application sampling grids) while
#: keeping the canonical six-application roster (and every artefact
#: derived from it) untouched.
MULTIRATE_CASE_STUDY: Tuple[Tuple[str, float, float, float], ...] = (
    ("motor-current-loop", 200.0, 2.0, 0.5),
    ("lateral-dynamics", 2000.0, 15.0, 2.0),
    ("throttle-by-wire", 800.0, 20.0, 8.5),
    ("servo-rig", 1000.0, 6.0, 6.0),
)

@dataclass(frozen=True)
class CaseStudyApplication:
    """A fully designed and characterised simulation-mode application."""

    plant: PlantDefinition
    app: SwitchedApplication
    characterization: CharacterizationResult

    @property
    def name(self) -> str:
        return self.app.name

    @property
    def params(self) -> TimingParameters:
        return self.characterization.params


def simulated_design(wait_step: int = 2) -> StudyAttachments:
    """The ``sim-table1`` study's attachments at ``wait_step``.

    ``case_apps`` is the characterised simulation-mode roster and
    ``allocation`` its first-fit packing under the non-monotonic model
    and the closed-form analysis.  The dwell curves come from the
    pipeline's shared cache, so every driver measures them once.
    """
    from repro.pipeline import DesignStudy, get_scenario

    scenario = get_scenario("sim-table1").derive(wait_step=wait_step)
    return DesignStudy(scenario).run().raise_for_failure().attachments


__all__ = [
    "MULTIRATE_CASE_STUDY",
    "SIMULATION_CASE_STUDY",
    "CaseStudyApplication",
    "simulated_design",
]
