"""Tests for the command-line interface."""

import argparse
import json
import re

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.pipeline import StudyResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in (
            ["fig3"],
            ["fig4"],
            ["table1", "--paper-only"],
            ["allocation"],
            ["fig5", "--plots"],
            ["ablations", "--which", "segments"],
            ["validate", "--seeds", "2"],
            ["sensitivity", "--scales", "1.0", "2.0"],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_ablations_usage_names_every_choice(self):
        """The module usage line lists the same ablations, in the same
        order, as ``--which`` accepts."""
        sub = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        which = next(
            action
            for action in sub.choices["ablations"]._actions
            if action.dest == "which"
        )
        usage = re.search(r"ablations \[--which ([\w|-]+)\]", repro.cli.__doc__)
        assert usage.group(1).split("|") == list(which.choices)

    @pytest.mark.parametrize("command", ["ablations", "all"])
    def test_unknown_ablation_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--which", "typo"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'typo'" in capsys.readouterr().err

    def test_all_keeps_its_own_seeds_default(self):
        parser = build_parser()
        assert parser.parse_args(["all"]).seeds == 3
        assert parser.parse_args(["validate"]).seeds == 5

    def test_kernel_choices_are_auto_and_event(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["fig5", "--kernel", "event"]).kernel == "event"
        for removed in ("legacy", "batch"):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(["fig5", "--kernel", removed])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "choose from" in err and "auto" in err and "event" in err


class TestExecution:
    def test_table1_paper_only(self, capsys):
        assert main(["table1", "--paper-only"]) == 0
        out = capsys.readouterr().out
        assert "C3" in out and "Table I" in out

    def test_allocation(self, capsys):
        assert main(["allocation"]) == 0
        out = capsys.readouterr().out
        assert "67% more TT slots" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "--scales", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "sensitivity" in out.lower()
        assert "3" in out and "5" in out


#: Cheapest invocation of every subcommand (high stride, few seeds, the
#: analytic network) so the smoke sweep stays fast, keyed by test id.
#: The ``-simulated``/``-segments``/``-jitter`` runs reach each driver
#: that designs the simulated roster through ``sim-table1``.
SMOKE_COMMANDS = {
    "fig1": ["fig1"],
    "fig3": ["fig3", "--wait-step", "16"],
    "fig4": ["fig4", "--wait-step", "16"],
    "table1": ["table1", "--paper-only"],
    "table1-simulated": ["table1", "--wait-step", "16"],
    "allocation": ["allocation"],
    "allocation-simulated": ["allocation", "--simulated", "--wait-step", "16"],
    "fig5": ["fig5", "--analytic", "--wait-step", "16"],
    "ablations": ["ablations", "--which", "fixed-point"],
    "ablations-segments": ["ablations", "--which", "segments", "--wait-step", "16"],
    "ablations-jitter": ["ablations", "--which", "jitter", "--wait-step", "16"],
    "validate": ["validate", "--seeds", "1", "--wait-step", "16"],
    "sensitivity": ["sensitivity", "--scales", "1.0"],
    "study": ["study", "--scenario", "paper-table1"],
}


class TestSmoke:
    """Every subcommand runs to completion and prints something."""

    @pytest.mark.parametrize(
        "argv", list(SMOKE_COMMANDS.values()), ids=list(SMOKE_COMMANDS)
    )
    def test_subcommand_runs(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize(
        "argv", list(SMOKE_COMMANDS.values()), ids=list(SMOKE_COMMANDS)
    )
    def test_subcommand_runs_with_json(self, argv, capsys):
        assert main(argv + ["--json"]) == 0
        json.loads(capsys.readouterr().out)


class TestStudyCommand:
    def test_study_json_round_trips(self, capsys):
        assert main(["study", "--scenario", "paper-table1", "--json"]) == 0
        payload = capsys.readouterr().out
        result = StudyResult.from_json(payload)
        assert result.ok
        assert result.slot_count == 3
        assert result.to_dict() == json.loads(payload)

    def test_study_multiple_scenarios_emit_list(self, capsys):
        assert main(
            [
                "study",
                "--scenario", "paper-table1",
                "--scenario", "paper-table1-monotonic",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 2
        slots = [StudyResult.from_dict(item).slot_count for item in payload]
        assert slots == [3, 5]

    def test_study_list(self, capsys):
        assert main(["study", "--list"]) == 0
        out = capsys.readouterr().out
        assert "paper-table1" in out and "fig5-cosim" in out

    def test_study_default_scenario(self, capsys):
        assert main(["study"]) == 0
        assert "paper-table1" in capsys.readouterr().out

    def test_unknown_scenario_is_clean_error(self, capsys):
        assert main(["study", "--scenario", "no-such-scenario"]) == 2
        captured = capsys.readouterr()
        assert "unknown scenario" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_wait_step_is_clean_error(self, capsys):
        assert main(["fig3", "--wait-step", "0"]) == 2
        assert "wait_step" in capsys.readouterr().err

    def test_flags_accepted_before_subcommand(self, capsys):
        # top-level position (legacy) and post-subcommand position both work
        assert main(["--json", "table1", "--paper-only"]) == 0
        json.loads(capsys.readouterr().out)


class TestSweepCommand:
    SWEEP_ARGS = [
        "sweep",
        "--scenario", "multirate-cosim-analytic",
        "--replications", "2",
        "--wait-step", "4",
    ]

    def test_sweep_runs_and_reports(self, capsys):
        assert main(self.SWEEP_ARGS) == 0
        out = capsys.readouterr().out
        assert "Sweep of" in out and "QoC" in out

    def test_sweep_json_and_axes(self, capsys):
        assert (
            main(self.SWEEP_ARGS + ["--axis", "loss_rate=0,0.05", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 2
        assert len(payload["runs"]) == 4
        assert {run["seed"] for run in payload["runs"]} == {0, 1}

    def test_sweep_streams_jsonl(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        assert main(self.SWEEP_ARGS + ["--output", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all("qoc" in json.loads(line) for line in lines)

    def test_sweep_bad_axis_is_clean_error(self, capsys):
        assert main(self.SWEEP_ARGS + ["--axis", "nonsense"]) == 2
        captured = capsys.readouterr()
        assert "--axis" in captured.err and "Traceback" not in captured.err

    def test_sweep_duplicate_axis_is_clean_error(self, capsys):
        argv = self.SWEEP_ARGS + ["--axis", "loss_rate=0", "--axis", "loss_rate=0.05"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "given twice" in captured.err and "Traceback" not in captured.err

    def test_sweep_seed_axis_is_clean_error(self, capsys):
        assert main(self.SWEEP_ARGS + ["--axis", "seed=1,2"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_sweep_unknown_scenario_is_clean_error(self, capsys):
        assert main(["sweep", "--scenario", "no-such"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_adaptive_sweep_runs_and_reports(self, capsys):
        argv = self.SWEEP_ARGS + [
            "--ci-target", "0.2", "--ci-relative",
            "--max-replications", "6",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "adaptive mode" in out and "stopped" in out

    def test_adaptive_sweep_json_carries_provenance(self, capsys):
        argv = self.SWEEP_ARGS + [
            "--ci-target", "0.2", "--ci-relative",
            "--max-replications", "6", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "adaptive"
        assert payload["config"]["ci_target"] == 0.2
        assert all("stopped_reason" in cell for cell in payload["cells"])
        assert all("round" in run for run in payload["runs"])

    def test_adaptive_sweep_without_cap_is_clean_error(self, capsys):
        assert main(self.SWEEP_ARGS + ["--ci-target", "0.2"]) == 2
        captured = capsys.readouterr()
        assert "max_replications" in captured.err
        assert "Traceback" not in captured.err

    def test_ci_relative_without_target_is_clean_error(self, capsys):
        assert main(self.SWEEP_ARGS + ["--ci-relative"]) == 2
        assert "ci_relative" in capsys.readouterr().err


class TestStudySeed:
    def test_seed_threads_into_cosim_artifact(self, capsys):
        assert (
            main(
                [
                    "study",
                    "--scenario", "multirate-cosim-analytic",
                    "--wait-step", "4",
                    "--seed", "9",
                    "--json",
                ]
            )
            == 0
        )
        result = StudyResult.from_json(capsys.readouterr().out)
        assert result.scenario.seed == 9
        assert result.artifact("cosim")["seed"] == 9

    def test_process_executor_accepted(self, capsys):
        assert (
            main(
                [
                    "study",
                    "--scenario", "paper-table1",
                    "--scenario", "paper-table1-monotonic",
                    "--executor", "process",
                    "--jobs", "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert [StudyResult.from_dict(p).slot_count for p in payload] == [3, 5]
