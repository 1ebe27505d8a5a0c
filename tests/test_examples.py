"""The examples import against the current API without running their
``main()``, and each ``main()`` runs and prints its headline numbers."""

import importlib.util
import re
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_example(name, capsys):
    load_example(name).main()
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "name",
    [
        "custom_plant_pipeline",
        "design_space_exploration",
        "flexray_cosimulation",
        "output_feedback",
        "quickstart",
        "servo_characterization",
    ],
)
def test_example_imports(name, capsys):
    assert callable(load_example(name).main)
    assert capsys.readouterr().out == ""  # main() is behind __main__


def test_design_space_exploration_output(capsys):
    out = run_example("design_space_exploration", capsys)
    for label in ("first-fit (paper)", "best-fit", "worst-fit", "exhaustive optimum"):
        row = re.search(rf"^{re.escape(label)}\s+(\d+)\s+(.+?)\s*$", out, re.M)
        assert row is not None, label
        assert row.groups() == ("3", "C3,C6 | C2,C4 | C5,C1")
    assert "critical tightness factor: 0.414" in out


def test_quickstart_output(capsys):
    out = run_example("quickstart", capsys)
    assert "allocate      ok" in out
    assert "3 TT slots: C3,C6 | C2,C4 | C5,C1" in out
    assert "monotonic model needs 67% more TT slots" in out
    assert "slot contents (from JSON): [['C3', 'C6'], ['C2', 'C4'], ['C5', 'C1']]" in out
    for variant, slots in (("optimal", 3), ("dedicated", 6), ("fixed-point", 3)):
        assert re.search(rf"^paper-table1-{variant}\s+-> {slots} TT slots$", out, re.M)


def test_custom_plant_pipeline_output(capsys):
    out = run_example("custom_plant_pipeline", capsys)
    assert "xi_TT   = 2.040 s" in out
    assert "sharing a TT slot with C3 and C6: worst response 2.060 s" in out
    assert "-> schedulable: True" in out
    # The newcomer fits, but its blocking pushes C3 past its deadline.
    assert "C3 re-checked with the newcomer: 2.417 s vs 2.0 s -> False" in out
    assert "C6 re-checked with the newcomer: 3.637 s vs 6.0 s -> True" in out


def test_flexray_cosimulation_output(capsys):
    out = run_example("flexray_cosimulation", capsys)
    assert re.search(r"^non-monotonic \(paper\)\s+2\s", out, re.M)
    assert re.search(r"^conservative monotonic\s+3\s", out, re.M)
    assert re.search(r"^dedicated \(1 slot/app\)\s+6\s", out, re.M)
    assert "monotonic needs 50% more TT slots" in out
    assert out.rstrip().endswith("=> ALL DEADLINES MET")


def test_output_feedback_output(capsys):
    out = run_example("output_feedback", capsys)
    assert "full-state feedback settling time : 0.46 s" in out
    assert "observer-based feedback settling  : 0.46 s" in out


def test_servo_characterization_output(capsys):
    out = run_example("servo_characterization", capsys)
    assert re.search(r"^xi_TT \[s\]\s+0\.680\s+0\.680\s*$", out, re.M)
    assert re.search(r"^non-monotonic\?\s+yes\s+True\s*$", out, re.M)
    assert "safety check: model dominates every measured sample -> True" in out
