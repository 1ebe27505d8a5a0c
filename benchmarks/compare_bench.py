#!/usr/bin/env python
"""Diff freshly measured BENCH_*.json artifacts against committed ones.

CI's smoke job regenerates the benchmark artifacts on every run; this
script compares them with the versions committed at a git reference
(``HEAD`` by default) and prints a regression table of every numeric
metric that moved, so the BENCH trajectory is visible in the job log
without downloading artifacts:

    python benchmarks/compare_bench.py            # diff vs HEAD
    python benchmarks/compare_bench.py --ref v1.0 # diff vs a tag
    python benchmarks/compare_bench.py BENCH_cosim.json  # one file only
    python benchmarks/compare_bench.py --log BENCH_history.jsonl  # and append

``--log PATH`` additionally appends every numeric leaf of the current
artifacts to an append-only trajectory log — one JSON line per
``(commit, artifact, key, value)`` — so the per-commit history of every
benchmark metric accumulates in one greppable file instead of being
reconstructed from ``git log -p``.  Lines already present for the same
``(commit, artifact, key)`` are not rewritten, so re-running a CI job
never duplicates history.

The full-table report is informational — CI wires it in as a
non-blocking step (timings on shared runners are noisy).  Exit status
is 0 unless ``--fail-above`` is given, in which case any metric whose
relative change exceeds the threshold in the bad direction fails the
run (metrics matching a ``HIGHER_IS_BETTER`` substring regress
downward; everything else — timings, counts — regresses upward), and
so does a metric that the baseline has but the fresh artifact lost, so
renaming a gated key cannot leave the gate watching nothing.
``--only PATTERN`` restricts the diff to matching metric paths, so a
*blocking* CI gate can watch a robust ratio (e.g.
``--only 'kernel.batch_speedup*'``) while raw second-counts stay
advisory; a pattern with glob characters is matched anchored
(``fnmatch``), a plain one as a substring.  Setting
``REPRO_BENCH_NO_GATE=1`` reports regressions but forces exit 0 — the
escape hatch for landing a known, accepted regression without editing
the workflow.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Keys that are measurement noise or metadata, never a regression.
IGNORED_LEAVES = {"generated_unix", "cpu_count", "workers", "smoke"}

#: Substrings marking metrics where *larger* is better (speedups,
#: cache effectiveness, savings, throughput); everything else numeric —
#: timings, counts, ratios-to-a-baseline — is treated as
#: lower-is-better when deciding the regression flag.
HIGHER_IS_BETTER = (
    "speedup",
    "hit_rate",
    "hits",
    "deadlines_met",
    "saved",
    "savings",
    "per_second",
)


def flatten(node, prefix="") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in IGNORED_LEAVES:
                continue
            yield from flatten(value, f"{prefix}{key}.")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from flatten(value, f"{prefix}{index}.")
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        yield prefix.rstrip("."), float(node)


def committed_version(path: Path, ref: str) -> Dict:
    """The artifact as committed at ``ref`` (None when not present)."""
    try:
        relative = path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        # e.g. a downloaded CI artifact outside the checkout: compare it
        # against the committed file of the same name at the repo root.
        relative = path.name
    proc = subprocess.run(
        ["git", "show", f"{ref}:{relative}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def is_regression(path: str, delta_pct: float) -> bool:
    """Whether the change moved in the bad direction for this metric."""
    lower = path.lower()
    if any(tag in lower for tag in HIGHER_IS_BETTER):
        return delta_pct < 0
    return delta_pct > 0


def matches_only(key: str, only: str) -> bool:
    """``--only`` semantics: anchored glob when the pattern has glob
    characters (lets ``kernel.*`` exclude ``flexray_kernel.*``), plain
    case-insensitive substring otherwise."""
    if any(ch in only for ch in "*?["):
        return fnmatch.fnmatchcase(key.lower(), only.lower())
    return only.lower() in key.lower()


def compare_file(path: Path, ref: str, threshold: float, only: str = None):
    """Print one artifact's diff table; returns the regression count
    above ``threshold`` (None-safe on missing baselines).  ``only``
    restricts the table to metric paths matching that pattern."""
    current = json.loads(path.read_text())
    baseline = committed_version(path, ref)
    print(f"\n== {path.name} (vs {ref}) ==")
    if baseline is None:
        print(f"  no committed baseline at {ref} — nothing to diff")
        return 0
    old = dict(flatten(baseline))
    new = dict(flatten(current))
    rows = []
    keys = sorted(set(old) | set(new))
    if only is not None:
        keys = [key for key in keys if matches_only(key, only)]
        if not keys:
            print(f"  no metric paths match --only {only!r}")
            return 0
    for key in keys:
        if key not in old:
            rows.append((key, None, new[key], None))
            continue
        if key not in new:
            rows.append((key, old[key], None, None))
            continue
        if old[key] == new[key]:
            continue
        base = abs(old[key]) if old[key] else 1.0
        rows.append((key, old[key], new[key], 100.0 * (new[key] - old[key]) / base))
    if not rows:
        print("  no numeric changes")
        return 0
    width = max(len(r[0]) for r in rows)
    failures = 0
    print(f"  {'metric'.ljust(width)}  {'committed':>12}  {'current':>12}  {'change':>9}")
    for key, old_v, new_v, delta in rows:
        old_s = "-" if old_v is None else f"{old_v:g}"
        new_s = "-" if new_v is None else f"{new_v:g}"
        if delta is None:
            delta_s, flag = "new/gone", ""
            if new_v is None and threshold is not None:
                flag = "  !!"
                failures += 1
        else:
            worse = is_regression(key, delta)
            flag = ""
            if worse and abs(delta) > 10.0:
                flag = "  !"
            if worse and threshold is not None and abs(delta) > threshold:
                flag = "  !!"
                failures += 1
            delta_s = f"{delta:+.1f}%"
        print(f"  {key.ljust(width)}  {old_s:>12}  {new_s:>12}  {delta_s:>9}{flag}")
    return failures


def current_commit() -> str:
    """Short hash of the checkout's HEAD (``unknown`` outside git)."""
    proc = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip()


def append_history(paths, log_path: Path, commit: str) -> int:
    """Append the artifacts' numeric leaves to the trajectory log.

    One JSON line per ``(commit, artifact, key, value)``; entries whose
    ``(commit, artifact, key)`` is already logged are skipped, keeping
    the log append-only and idempotent.  Returns the number of lines
    appended.
    """
    seen = set()
    if log_path.exists():
        for line in log_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            seen.add((entry.get("commit"), entry.get("artifact"), entry.get("key")))
    appended = 0
    with log_path.open("a") as handle:
        for path in paths:
            if not path.exists():
                continue
            artifact = path.name
            for key, value in flatten(json.loads(path.read_text())):
                if (commit, artifact, key) in seen:
                    continue
                handle.write(
                    json.dumps(
                        {
                            "commit": commit,
                            "artifact": artifact,
                            "key": key,
                            "value": value,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
                appended += 1
    return appended


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        help="artifacts to diff (default: every BENCH_*.json at the repo root)",
    )
    parser.add_argument(
        "--ref", default="HEAD", help="git reference holding the baseline"
    )
    parser.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when a metric regresses by more than PCT percent",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="PATTERN",
        help="diff only metric paths matching this pattern (anchored "
        "glob when it contains */?/[, case-insensitive substring "
        "otherwise); pair with --fail-above to gate one metric",
    )
    parser.add_argument(
        "--log",
        metavar="PATH",
        default=None,
        help="append (commit, artifact, key, value) JSONL lines for the "
        "current artifacts to this trajectory log",
    )
    parser.add_argument(
        "--commit",
        default=None,
        metavar="SHA",
        help="commit to stamp --log entries with (default: HEAD's short hash)",
    )
    args = parser.parse_args(argv)
    if args.files:
        paths = [Path(f).resolve() for f in args.files]
    else:
        paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json artifacts found")
        return 0
    failures = 0
    for path in paths:
        if not path.exists():
            print(f"\n== {path.name} == missing on disk, skipped")
            continue
        failures += compare_file(path, args.ref, args.fail_above, args.only)
    if args.log is not None:
        commit = args.commit or current_commit()
        appended = append_history(paths, Path(args.log), commit)
        print(f"\ntrajectory log {args.log}: +{appended} entr(ies) at {commit}")
    if failures and args.fail_above is not None:
        print(f"\n{failures} metric(s) regressed beyond {args.fail_above:g}%")
        if os.environ.get("REPRO_BENCH_NO_GATE", "") not in ("", "0"):
            print("REPRO_BENCH_NO_GATE set — reporting only, exit 0")
            return 0
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
