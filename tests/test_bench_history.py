"""Tests for the per-commit benchmark trajectory log
(``compare_bench.py --log``)."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "compare_bench", REPO_ROOT / "benchmarks" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def write_artifact(path: Path, payload):
    path.write_text(json.dumps(payload))
    return path


class TestAppendHistory:
    def test_appends_one_line_per_numeric_leaf(self, tmp_path):
        artifact = write_artifact(
            tmp_path / "BENCH_x.json",
            {"elapsed": 1.5, "nested": {"runs": 4}, "label": "text", "ok": True},
        )
        log = tmp_path / "history.jsonl"
        appended = compare_bench.append_history([artifact], log, "abc1234")
        assert appended == 2
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert {(e["artifact"], e["key"], e["value"]) for e in entries} == {
            ("BENCH_x.json", "elapsed", 1.5),
            ("BENCH_x.json", "nested.runs", 4.0),
        }
        assert all(e["commit"] == "abc1234" for e in entries)

    def test_rerun_same_commit_is_idempotent(self, tmp_path):
        artifact = write_artifact(tmp_path / "BENCH_x.json", {"elapsed": 1.5})
        log = tmp_path / "history.jsonl"
        assert compare_bench.append_history([artifact], log, "abc1234") == 1
        assert compare_bench.append_history([artifact], log, "abc1234") == 0
        assert len(log.read_text().splitlines()) == 1

    def test_new_commit_appends_without_rewriting(self, tmp_path):
        artifact = write_artifact(tmp_path / "BENCH_x.json", {"elapsed": 1.5})
        log = tmp_path / "history.jsonl"
        compare_bench.append_history([artifact], log, "abc1234")
        first = log.read_text()
        write_artifact(tmp_path / "BENCH_x.json", {"elapsed": 2.0})
        assert compare_bench.append_history([artifact], log, "def5678") == 1
        # append-only: the first commit's line is untouched
        assert log.read_text().startswith(first)
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["value"] for e in entries] == [1.5, 2.0]

    def test_ignored_leaves_stay_out_of_history(self, tmp_path):
        artifact = write_artifact(
            tmp_path / "BENCH_x.json",
            {"elapsed": 1.0, "generated_unix": 1.7e9, "cpu_count": 8},
        )
        log = tmp_path / "history.jsonl"
        assert compare_bench.append_history([artifact], log, "abc1234") == 1
        (entry,) = [json.loads(line) for line in log.read_text().splitlines()]
        assert entry["key"] == "elapsed"

    def test_missing_artifact_and_corrupt_log_line_tolerated(self, tmp_path):
        log = tmp_path / "history.jsonl"
        log.write_text("not json\n")
        artifact = write_artifact(tmp_path / "BENCH_x.json", {"elapsed": 1.0})
        missing = tmp_path / "BENCH_gone.json"
        assert compare_bench.append_history([artifact, missing], log, "abc1234") == 1

    def test_cli_log_flag_end_to_end(self, tmp_path, capsys):
        artifact = write_artifact(tmp_path / "BENCH_x.json", {"elapsed": 3.0})
        log = tmp_path / "history.jsonl"
        code = compare_bench.main(
            [str(artifact), "--log", str(log), "--commit", "abc1234"]
        )
        assert code == 0
        assert "trajectory log" in capsys.readouterr().out
        (entry,) = [json.loads(line) for line in log.read_text().splitlines()]
        assert entry == {
            "artifact": "BENCH_x.json",
            "commit": "abc1234",
            "key": "elapsed",
            "value": 3.0,
        }

    def test_committed_seed_log_matches_schema(self):
        # the repo ships a seeded BENCH_history.jsonl; every line must
        # carry the full (commit, artifact, key, value) schema
        seed = REPO_ROOT / "BENCH_history.jsonl"
        lines = [json.loads(line) for line in seed.read_text().splitlines()]
        assert lines, "seed trajectory log is empty"
        for entry in lines:
            assert set(entry) == {"commit", "artifact", "key", "value"}
            assert isinstance(entry["value"], float)


class TestRegressionGate:
    """``--only`` metric filtering and the ``REPRO_BENCH_NO_GATE``
    escape hatch of the blocking CI gate."""

    def _pin_baseline(self, monkeypatch, baseline):
        monkeypatch.setattr(
            compare_bench, "committed_version", lambda path, ref: baseline
        )

    def test_only_filter_gates_just_the_named_metric(
        self, tmp_path, capsys, monkeypatch
    ):
        self._pin_baseline(
            monkeypatch,
            {"kernel": {"batch_speedup_vs_legacy": 4.0}, "thread_seconds": 10.0},
        )
        # The speedup collapsed AND an unrelated timing blew up; with
        # --only, only the speedup regression fails the run.
        artifact = write_artifact(
            tmp_path / "BENCH_x.json",
            {"kernel": {"batch_speedup_vs_legacy": 2.0}, "thread_seconds": 99.0},
        )
        code = compare_bench.main(
            [str(artifact), "--fail-above", "25", "--only", "speedup_vs_legacy"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "batch_speedup_vs_legacy" in out
        assert "thread_seconds" not in out

    def test_only_filter_ignores_noise_outside_the_gate(
        self, tmp_path, capsys, monkeypatch
    ):
        self._pin_baseline(
            monkeypatch,
            {"kernel": {"batch_speedup_vs_legacy": 4.0}, "thread_seconds": 10.0},
        )
        artifact = write_artifact(
            tmp_path / "BENCH_x.json",
            {"kernel": {"batch_speedup_vs_legacy": 3.9}, "thread_seconds": 99.0},
        )
        code = compare_bench.main(
            [str(artifact), "--fail-above", "25", "--only", "speedup_vs_legacy"]
        )
        assert code == 0

    def test_only_glob_is_anchored_and_excludes_flexray_section(
        self, tmp_path, capsys, monkeypatch
    ):
        self._pin_baseline(
            monkeypatch,
            {
                "kernel": {"batch_speedup_vs_legacy": 4.0},
                "flexray_kernel": {"batch_speedup_vs_legacy": 4.0},
            },
        )
        # Only the flexray section collapsed; the anchored glob watches
        # the analytic section, so the gate passes.
        artifact = write_artifact(
            tmp_path / "BENCH_x.json",
            {
                "kernel": {"batch_speedup_vs_legacy": 3.9},
                "flexray_kernel": {"batch_speedup_vs_legacy": 1.0},
            },
        )
        code = compare_bench.main(
            [str(artifact), "--fail-above", "25", "--only", "kernel.batch_speedup*"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "flexray_kernel" not in out

    def test_gated_key_missing_from_fresh_artifact_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        """A renamed gated metric must not disarm the gate: the baseline
        still holds the old key, the fresh artifact only the new one."""
        self._pin_baseline(
            monkeypatch, {"kernel": {"batch_speedup_vs_legacy": 4.0}}
        )
        artifact = write_artifact(
            tmp_path / "BENCH_x.json", {"kernel": {"batch_speedup_vs_event": 4.0}}
        )
        code = compare_bench.main(
            [str(artifact), "--fail-above", "25", "--only", "kernel.batch_speedup*"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "batch_speedup_vs_legacy" in out
        assert "regressed beyond" in out

    def test_gone_key_is_only_reported_without_fail_above(
        self, tmp_path, capsys, monkeypatch
    ):
        self._pin_baseline(monkeypatch, {"elapsed": 1.0, "retired": 2.0})
        artifact = write_artifact(tmp_path / "BENCH_x.json", {"elapsed": 1.0})
        assert compare_bench.main([str(artifact)]) == 0
        assert "new/gone" in capsys.readouterr().out

    def test_only_filter_with_no_matches_reports_and_passes(
        self, tmp_path, capsys, monkeypatch
    ):
        self._pin_baseline(monkeypatch, {"elapsed": 1.0})
        artifact = write_artifact(tmp_path / "BENCH_x.json", {"elapsed": 9.0})
        code = compare_bench.main(
            [str(artifact), "--fail-above", "25", "--only", "no-such-metric"]
        )
        assert code == 0
        assert "no metric paths match" in capsys.readouterr().out

    def test_no_gate_env_reports_but_exits_zero(
        self, tmp_path, capsys, monkeypatch
    ):
        self._pin_baseline(monkeypatch, {"batch_speedup_vs_legacy": 4.0})
        artifact = write_artifact(
            tmp_path / "BENCH_x.json", {"batch_speedup_vs_legacy": 1.0}
        )
        monkeypatch.setenv("REPRO_BENCH_NO_GATE", "1")
        code = compare_bench.main([str(artifact), "--fail-above", "25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "regressed beyond" in out
        assert "REPRO_BENCH_NO_GATE" in out

    def test_gate_still_fails_when_escape_hatch_unset(
        self, tmp_path, capsys, monkeypatch
    ):
        self._pin_baseline(monkeypatch, {"batch_speedup_vs_legacy": 4.0})
        artifact = write_artifact(
            tmp_path / "BENCH_x.json", {"batch_speedup_vs_legacy": 1.0}
        )
        monkeypatch.delenv("REPRO_BENCH_NO_GATE", raising=False)
        assert compare_bench.main([str(artifact), "--fail-above", "25"]) == 1
