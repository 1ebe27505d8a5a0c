"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's test suite (pytest only
collects ``test_*.py`` on its own); naming it on the command line runs it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_workloads  # noqa: E402
import run  # noqa: E402
from bench_layers import trace_gauges, trace_targets  # noqa: E402
from bench_metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from bench_trace import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner).get(attr)


def test_benchmark_json_matches_the_catalogue():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_workloads.WORKLOADS)
    assert SPEC["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_every_name_and_unit_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in UNITS.values():
        assert UNIT.fullmatch(unit), unit
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("workload", sorted(bench_workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_minimal_pass_emits_every_metric(workload, trace):
    result = run.run(workload, seed=7, seconds=0, trace=trace, small=True)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert not (ROOT / ".perfbench_tmp").exists()


def test_trace_wrappers_are_restored():
    targets = trace_targets()
    before = [_current(owner, attr) for owner, attr, _, _ in targets]
    with Tracer(targets, trace_gauges()):
        during = [_current(owner, attr) for owner, attr, _, _ in targets]
    after = [_current(owner, attr) for owner, attr, _, _ in targets]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_restored_after_a_traced_run():
    targets = trace_targets()
    before = [_current(owner, attr) for owner, attr, _, _ in targets]
    run.run("study-cold", seed=3, seconds=0, trace=True, small=True)
    assert [_current(owner, attr) for owner, attr, _, _ in targets] == before


class _Toy:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1


def test_nested_spans_give_self_time_and_counters():
    tracer = Tracer(
        [
            (_Toy, "outer", "a.outer", None),
            (_Toy, "inner", "b.inner", lambda args, result: {"b.calls": result}),
        ]
    )
    with tracer:
        assert _Toy().outer() == 2
    calls, total, own = tracer.spans["a.outer"]
    assert calls == 1 and own <= total
    assert tracer.calls("b.inner") == 2
    assert tracer.counters["b.calls"] == 2
    layers = tracer.layer_self()
    assert layers["a"] + layers["b"] == pytest.approx(total)
    assert "outer" in vars(_Toy) and _Toy.outer.__name__ == "outer"


def test_a_span_that_raises_still_closes():
    def boom():
        raise ValueError("boom")

    table = {"f": boom}
    with Tracer([(table, "f", "x.f", None)]) as tracer:
        with pytest.raises(ValueError):
            table["f"]()
    assert table["f"] is boom
    assert tracer.calls("x.f") == 1


def test_output_mismatch_fails_the_run(monkeypatch):
    setup = bench_workloads.StudyCold.setup

    def corrupt_reference(self):
        setup(self)
        self.reference = ["{}"] + self.reference[1:]

    monkeypatch.setattr(bench_workloads.StudyCold, "setup", corrupt_reference)
    result = run.run("study-cold", seed=1, seconds=0, trace=False, small=True)
    assert not result["correct"]
    assert result["failed"] == run.MIN_PASSES  # one bad study per pass


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
