"""Tests for :mod:`repro.qa` — the determinism-contract static analyzer.

Each QA rule is exercised with at least one known-bad snippet (asserting
the rule id, span, and message) and one known-good snippet that must not
fire.  Suppression semantics, the JSON report, and the CLI gate are
covered alongside; the final test lints the real ``src/`` tree and
requires it clean — the same bar CI enforces.
"""

import json
from textwrap import dedent

import pytest

from repro.cli import main as cli_main
from repro.qa import (
    META_RULE_ID,
    all_rules,
    lint_paths,
    lint_source,
    render_text,
    report_dict,
    rule_ids,
)
from repro.qa.engine import module_for_path

#: Paths that put a snippet inside each rule's scope.
SIM_PATH = "src/repro/sim/snippet.py"
PIPELINE_PATH = "src/repro/pipeline/snippet.py"
ANY_PATH = "src/repro/experiments/snippet.py"


def findings_for(source, path=ANY_PATH, **kwargs):
    return lint_source(dedent(source), path=path, **kwargs)


def ids(findings):
    return [finding.rule_id for finding in findings]


class TestModuleScoping:
    def test_module_for_path(self):
        assert module_for_path("src/repro/sim/cosim.py") == "repro.sim.cosim"
        assert module_for_path("src/repro/qa/__init__.py") == "repro.qa"
        assert module_for_path("scratch/tool.py") == "tool"

    def test_scoped_rule_ignores_foreign_modules(self):
        # wall-clock reads are fine outside the QA002 scope entirely
        # (experiments) and inside its built-in allowlist (the fabric's
        # leases/heartbeats legitimately read real time)
        source = "import time\nt0 = time.time()\n"
        assert findings_for(source, path=ANY_PATH) == []
        assert findings_for(source, path="src/repro/fabric/snippet.py") == []
        # the chaos layer's backoff sleeps and deadlines ride the same
        # allowance: it coordinates real machines, not simulated ones
        assert findings_for(source, path="src/repro/fabric/resilience.py") == []
        # the pipeline layer is in scope since the fabric PR: duration
        # timing there must use time.perf_counter()
        assert ids(findings_for(source, path=PIPELINE_PATH)) == ["QA002"]

    def test_syntax_error_is_reported_not_raised(self):
        (finding,) = findings_for("def broken(:\n")
        assert finding.rule_id == META_RULE_ID
        assert "syntax error" in finding.message


class TestQA001UnseededRandom:
    def test_module_level_numpy_random_fires(self):
        (finding,) = findings_for("import numpy as np\nx = np.random.rand(3)\n")
        assert finding.rule_id == "QA001"
        assert finding.line == 2
        assert "np.random.rand" in finding.message

    def test_bare_random_fires(self):
        (finding,) = findings_for("import random\nx = random.random()\n")
        assert finding.rule_id == "QA001"
        assert "Mersenne" in finding.message

    def test_unseeded_default_rng_fires(self):
        source = """\
        from numpy.random import default_rng
        rng = default_rng()
        """
        (finding,) = findings_for(source)
        assert finding.rule_id == "QA001"
        assert finding.line == 2
        assert "seed" in finding.message

    def test_seed_none_counts_as_unseeded(self):
        assert ids(findings_for("import numpy as np\nr = np.random.default_rng(seed=None)\n")) == [
            "QA001"
        ]

    def test_seeded_generators_do_not_fire(self):
        source = """\
        import random
        import numpy as np
        rng = np.random.default_rng(123)
        kw = np.random.default_rng(seed=7)
        legacy = np.random.RandomState(5)
        twister = random.Random(42)
        draw = rng.random()
        """
        assert findings_for(source) == []


class TestQA002WallClock:
    def test_time_time_in_sim_fires(self):
        (finding,) = findings_for("import time\nstart = time.time()\n", path=SIM_PATH)
        assert finding.rule_id == "QA002"
        assert finding.line == 2
        assert "perf_counter" in finding.message

    def test_datetime_now_in_flexray_fires(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert ids(findings_for(source, path="src/repro/flexray/snippet.py")) == ["QA002"]

    def test_perf_counter_in_sim_does_not_fire(self):
        assert findings_for("import time\nt0 = time.perf_counter()\n", path=SIM_PATH) == []


class TestQA003FloatTimeCompare:
    def test_isclose_on_time_fires(self):
        source = """\
        import numpy as np
        def same(barrier_time, t):
            return np.isclose(barrier_time, t)
        """
        (finding,) = findings_for(source, path=SIM_PATH)
        assert finding.rule_id == "QA003"
        assert finding.line == 3
        assert "integer-ns" in finding.message

    def test_abs_diff_tolerance_on_time_fires(self):
        source = """\
        def matches(delivery, record):
            return abs(delivery.release_time - record.release) <= 1e-9
        """
        (finding,) = findings_for(source, path=SIM_PATH)
        assert finding.rule_id == "QA003"
        assert "abs(a - b)" in finding.message

    def test_np_spacing_in_sim_fires(self):
        source = "import numpy as np\neps = np.spacing(1.0)\n"
        assert ids(findings_for(source, path=SIM_PATH)) == ["QA003"]

    def test_isclose_on_precomputed_grant_instant_fires(self):
        """The FlexRay schedule-precomputation vocabulary (grant /
        transmit / window instants) is covered by the int-ns contract."""
        source = """\
        import numpy as np
        def due(grant, transmit_window):
            return np.isclose(grant, transmit_window)
        """
        (finding,) = findings_for(source, path=SIM_PATH)
        assert finding.rule_id == "QA003"
        assert "integer-ns" in finding.message

    def test_abs_diff_tolerance_on_transmit_window_fires(self):
        source = """\
        def within(transmit_start, window_end):
            return abs(transmit_start - window_end) <= 1e-9
        """
        (finding,) = findings_for(source, path=SIM_PATH)
        assert finding.rule_id == "QA003"

    def test_exact_compare_on_grant_instants_does_not_fire(self):
        source = "due = grant_ns == window_start_ns\n"
        assert findings_for(source, path=SIM_PATH) == []

    def test_isclose_on_state_vectors_does_not_fire(self):
        source = """\
        import numpy as np
        def close(state_a, state_b):
            return np.isclose(state_a, state_b)
        """
        assert findings_for(source, path=SIM_PATH) == []

    def test_exact_equality_on_time_does_not_fire(self):
        source = """\
        def matches(delivery, record):
            return delivery.release_time == record.release
        """
        assert findings_for(source, path=SIM_PATH) == []

    def test_out_of_scope_module_does_not_fire(self):
        source = "import numpy as np\nok = np.isclose(t_a, t_b)\n"
        assert findings_for(source, path="src/repro/control/snippet.py") == []


class TestQA004RegistryLiterals:
    def test_unknown_scenario_name_fires(self):
        source = """\
        from repro.pipeline import get_scenario
        s = get_scenario("paper-tabel1")
        """
        (finding,) = findings_for(source)
        assert finding.rule_id == "QA004"
        assert finding.line == 2
        assert "paper-tabel1" in finding.message
        assert "paper-table1" in finding.message  # suggestions listed

    def test_unknown_allocator_keyword_fires(self):
        source = """\
        from repro.pipeline import Scenario
        s = Scenario(name="x", allocator="frist-fit")
        """
        (finding,) = findings_for(source)
        assert finding.rule_id == "QA004"
        assert "frist-fit" in finding.message

    def test_unknown_network_keyword_fires_with_suggestion(self):
        """Network literals resolve against the *live* backend registry."""
        source = """\
        from repro.pipeline import Scenario
        s = Scenario(name="x", network="cna")
        """
        (finding,) = findings_for(source)
        assert finding.rule_id == "QA004"
        assert "cna" in finding.message
        assert "can" in finding.message  # typo suggestion listed first

    def test_unknown_network_on_build_network_fires(self):
        source = """\
        from repro.sim.network import build_network
        net = build_network("token-ring")
        """
        (finding,) = findings_for(source)
        assert finding.rule_id == "QA004"
        assert "token-ring" in finding.message

    def test_registered_network_literals_do_not_fire(self):
        source = """\
        from repro.pipeline import Scenario
        from repro.sim.network import build_network, get_network
        a = Scenario(name="x", network="can")
        b = get_network("analytic")
        c = build_network("flexray", loss_rate=0.1)
        """
        assert findings_for(source) == []

    def test_freshly_registered_backend_is_a_legal_literal(self):
        """A third-party registration extends what QA004 accepts —
        the live-registry contract (the rule snapshots once per
        process, so the snapshot is primed after registration)."""
        from repro.qa.rules_structure import RegistryLiteralRule
        from repro.sim.network import register_network, unregister_network

        @register_network(
            "test-qa-backend",
            summary="QA004 live-registry fixture",
            deterministic=True,
            analytic_delays=True,
            loss="none",
        )
        def _build(**kwargs):
            raise AssertionError("lint never builds")

        old_snapshot = RegistryLiteralRule._REGISTRIES
        RegistryLiteralRule._REGISTRIES = None
        try:
            source = 'net = build_network("test-qa-backend")\n'
            assert findings_for(source) == []
        finally:
            RegistryLiteralRule._REGISTRIES = old_snapshot
            unregister_network("test-qa-backend")

    def test_unknown_kernel_on_derive_fires(self):
        assert ids(findings_for('v = base.derive(name="y", kernel="bogus")\n')) == ["QA004"]

    def test_unknown_stage_subscript_fires(self):
        assert ids(findings_for('stage = STAGES["co-sim"]\n')) == ["QA004"]

    def test_registered_names_do_not_fire(self):
        source = """\
        from repro.pipeline import Scenario, get_scenario
        a = get_scenario("paper-table1")
        b = Scenario(name="x", allocator="first-fit", method="fixed-point", kernel="auto")
        c = a.derive(name="y", network="flexray", disturbance="sporadic")
        """
        assert findings_for(source) == []

    def test_non_literal_names_are_ignored(self):
        source = """\
        def load(name):
            return get_scenario(name)
        """
        assert findings_for(source) == []


class TestQA005UnpicklablePayload:
    def test_lambda_field_default_fires(self):
        source = """\
        from dataclasses import dataclass

        @dataclass
        class Job:
            score = lambda self: 0.0
        """
        (finding,) = findings_for(source, path=PIPELINE_PATH)
        assert finding.rule_id == "QA005"
        assert finding.line == 5
        assert "pickle" in finding.message

    def test_field_default_lambda_fires(self):
        source = """\
        from dataclasses import dataclass, field

        @dataclass
        class Job:
            hook: object = field(default=lambda: 1)
        """
        assert ids(findings_for(source, path=PIPELINE_PATH)) == ["QA005"]

    def test_self_lambda_in_method_fires(self):
        source = """\
        from dataclasses import dataclass

        @dataclass
        class Job:
            name: str

            def __post_init__(self):
                self.key = lambda: self.name
        """
        (finding,) = findings_for(source, path=SIM_PATH)
        assert finding.rule_id == "QA005"
        assert "Job.key" in finding.message

    def test_default_factory_lambda_does_not_fire(self):
        source = """\
        from dataclasses import dataclass, field

        @dataclass
        class Job:
            tags: list = field(default_factory=lambda: [])
        """
        assert findings_for(source, path=PIPELINE_PATH) == []

    def test_non_dataclass_and_out_of_scope_do_not_fire(self):
        source = """\
        class Plain:
            score = lambda self: 0.0
        """
        assert findings_for(source, path=PIPELINE_PATH) == []
        dc = """\
        from dataclasses import dataclass

        @dataclass
        class Elsewhere:
            score = lambda self: 0.0
        """
        assert findings_for(dc, path="src/repro/control/snippet.py") == []


class TestSuppressions:
    def test_suppression_silences_exactly_one_rule_on_one_line(self):
        source = """\
        import numpy as np
        a = np.random.rand()  # repro: allow[QA001]
        b = np.random.rand()
        """
        (finding,) = findings_for(source)
        assert finding.rule_id == "QA001"
        assert finding.line == 3  # line 2 suppressed, line 3 still fires

    def test_suppression_does_not_silence_other_rules(self):
        source = """\
        import time
        t0 = time.time()  # repro: allow[QA001]
        """
        (finding,) = findings_for(source, path=SIM_PATH)
        assert finding.rule_id == "QA002"  # QA001 allowance is irrelevant

    def test_unknown_rule_id_in_suppression_is_reported(self):
        source = "x = 1  # repro: allow[QA999]\n"
        (finding,) = findings_for(source)
        assert finding.rule_id == META_RULE_ID
        assert finding.line == 1
        assert "QA999" in finding.message
        assert "QA001" in finding.message  # known ids listed

    def test_comma_separated_ids_bind_to_the_line(self):
        source = """\
        import numpy as np
        t = np.random.rand()  # repro: allow[QA001,QA003]
        """
        assert findings_for(source, path=SIM_PATH) == []

    def test_allowlist_exempts_module_prefix(self):
        source = "import numpy as np\nx = np.random.rand()\n"
        allow = {"QA001": ("repro.experiments",)}
        assert findings_for(source, allowlist=allow) == []
        assert ids(findings_for(source, path=SIM_PATH, allowlist=allow)) == ["QA001"]


class TestReports:
    def test_spans_carry_columns(self):
        (finding,) = findings_for("import numpy as np\nx = np.random.rand()\n")
        assert finding.col == 4
        assert finding.end_line == 2
        assert finding.location().endswith(":2:5")

    def test_json_report_round_trips(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt0 = time.time()\n", encoding="utf-8")
        result = lint_paths([str(tmp_path)])
        document = report_dict(result, [str(tmp_path)], all_rules())
        loaded = json.loads(json.dumps(document))
        assert loaded["version"] == 1
        assert loaded["summary"]["errors"] == 1
        assert loaded["summary"]["files_checked"] == 1
        assert loaded["findings"][0]["rule_id"] == "QA002"
        assert {rule["id"] for rule in loaded["rules"]} == set(rule_ids())

    def test_text_report_mentions_location_and_count(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt0 = time.time()\n", encoding="utf-8")
        result = lint_paths([str(bad)])
        text = render_text(result)
        assert f"{bad}:2:6: QA002" in text
        assert "1 error(s)" in text


class TestCli:
    def _write_bad(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\nimport numpy as np\n"
            "t0 = time.time()\nx = np.random.rand()\n",
            encoding="utf-8",
        )
        return bad

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("value = 1\n", encoding="utf-8")
        assert cli_main(["lint", str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "QA001" in out and "QA002" in out

    def test_rule_filter_limits_rules(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad), "--rule", "QA002"]) == 1
        out = capsys.readouterr().out
        assert "QA002" in out and "QA001" not in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad), "--rule", "QA123"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_json_output_parses(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["tool"] == "repro.qa"
        assert document["summary"]["exit_code"] == 1
        assert {f["rule_id"] for f in document["findings"]} == {"QA001", "QA002"}

    def test_missing_path_exits_two(self, capsys):
        assert cli_main(["lint", "no/such/path"]) == 2
        assert "neither a file nor a directory" in capsys.readouterr().err


class TestRuleCoverageContract:
    """Every shipped rule has a firing and a non-firing case above."""

    BAD = {
        "QA001": ("import numpy as np\nx = np.random.rand()\n", ANY_PATH),
        "QA002": ("import time\nt0 = time.time()\n", SIM_PATH),
        "QA003": ("import numpy as np\neps = np.spacing(1.0)\n", SIM_PATH),
        "QA004": ('s = get_scenario("nope-nope")\n', ANY_PATH),
        "QA005": (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Job:\n    hook = lambda self: 0\n",
            PIPELINE_PATH,
        ),
    }
    GOOD = {
        "QA001": ("import numpy as np\nx = np.random.default_rng(1).random()\n", ANY_PATH),
        "QA002": ("import time\nt0 = time.perf_counter()\n", SIM_PATH),
        "QA003": ("same = time_a == time_b\n", SIM_PATH),
        "QA004": ('s = get_scenario("paper-table1")\n', ANY_PATH),
        "QA005": (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Job:\n    name: str = 'x'\n",
            PIPELINE_PATH,
        ),
    }

    @pytest.mark.parametrize("rule_id", ["QA001", "QA002", "QA003", "QA004", "QA005"])
    def test_rule_fires_on_bad_and_not_on_good(self, rule_id):
        bad_source, bad_path = self.BAD[rule_id]
        good_source, good_path = self.GOOD[rule_id]
        assert rule_id in ids(lint_source(bad_source, path=bad_path))
        assert rule_id not in ids(lint_source(good_source, path=good_path))


class TestTreeIsClean:
    def test_repo_src_lints_clean(self):
        result = lint_paths(["src"])
        assert result.findings == [], render_text(result)
        assert result.exit_code == 0
        assert len(result.files) > 80  # the whole tree was visited
