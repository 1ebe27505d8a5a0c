"""Content-addressed result store backing the sweep coordinator.

Each entry is one finished replication row keyed by the scenario's
content address (``fingerprint+seed``,
:meth:`~repro.pipeline.scenario.Scenario.content_address`).  The
address is the whole identity: a row computed on any worker, in any
run, satisfies every job with the same address, which is what makes
reruns cache hits and killed sweeps resumable.

:meth:`ResultStore.load_jsonl` rebuilds the done-set from a streamed
sweep JSONL (both :func:`~repro.pipeline.sweep.run_sweep` and the
fabric write ``address`` on every row).  Rows whose
``failed_stage == "worker"`` are *not* adopted: a worker-transport
failure says nothing about the scenario, so resuming retries those
jobs — whereas domain failures (infeasible allocation, overload) are
deterministic and reusable like any other row.

Torn tails: a killed writer leaves exactly one artifact — the final
line cut mid-byte with no trailing newline.  ``load_jsonl`` recovers
the intact prefix and reports the torn row in
:attr:`ResumeReport.recovered_tail`; an undecodable line anywhere
*else* (mid-file, or a complete newline-terminated final line) is real
corruption and still raises, so a damaged log stops the sweep instead
of silently recomputing everything.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, NamedTuple, Optional


class ResumeReport(NamedTuple):
    """What :meth:`ResultStore.load_jsonl` found in a resume log."""

    #: Rows adopted into the done-set.
    adopted: int
    #: ``failed_stage == "worker"`` rows deliberately left for a retry.
    skipped: int
    #: Torn final lines dropped (0 or 1 — the killed-writer artifact).
    recovered_tail: int


class ResultStore:
    """In-memory map of content address → finished row."""

    def __init__(self) -> None:
        self._rows: Dict[str, Dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, address: str) -> bool:
        return address in self._rows

    def get(self, address: str) -> Optional[Dict[str, Any]]:
        return self._rows.get(address)

    def put(self, address: str, row: Dict[str, Any]) -> bool:
        """Adopt ``row`` for ``address``; returns False when the address
        is already filled (the newcomer — e.g. a zombie worker's late
        duplicate — is dropped, keeping the store one-row-per-address)."""
        if address in self._rows:
            return False
        self._rows[address] = row
        return True

    def load_jsonl(
        self,
        path: str,
        wanted: Optional[Iterable[str]] = None,
    ) -> ResumeReport:
        """Rebuild the done-set from a sweep JSONL stream.

        Adopts every addressed, non-worker-failed row (optionally
        restricted to the ``wanted`` addresses of the sweep being
        resumed, so a shared log cannot leak foreign rows in).

        A torn **final** line — undecodable *and* missing its trailing
        newline, the artifact a killed writer leaves — is dropped and
        counted in :attr:`ResumeReport.recovered_tail`; the intact
        prefix still resumes.  An undecodable line anywhere else
        raises: mid-file corruption should stop the sweep, not
        silently recompute everything.
        """
        adopted = 0
        skipped = 0
        recovered_tail = 0
        wanted_set = None if wanted is None else set(wanted)
        text = Path(path).read_text(encoding="utf-8")
        complete = text.endswith("\n")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines) and not complete:
                    # killed mid-write: recover the prefix, drop the tear
                    recovered_tail += 1
                    break
                raise ValueError(
                    f"{path}:{lineno}: unreadable resume row: {exc}"
                ) from None
            address = row.get("address") if isinstance(row, dict) else None
            if address is None or (wanted_set is not None and address not in wanted_set):
                continue
            if row.get("failed_stage") == "worker":
                skipped += 1
                continue
            if self.put(address, row):
                adopted += 1
        return ResumeReport(adopted, skipped, recovered_tail)


__all__ = ["ResultStore", "ResumeReport"]
