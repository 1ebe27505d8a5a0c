"""Sweep coordinator: decompose, lease, collect, merge — deterministically.

The coordinator turns one fixed sweep spec into content-addressed
:class:`~repro.pipeline.sweep.SweepJob` s
(:func:`~repro.pipeline.sweep.fixed_jobs`), serves them to workers over
the line-JSON protocol, and folds finished rows back together with
:func:`~repro.pipeline.sweep.merge_rows` **in dispatch order** — so the
distributed result is bitwise identical (row values, per-cell Welford
statistics) to serial :func:`~repro.pipeline.sweep.run_sweep` on the
same spec, whatever order the fleet lands rows in.

Fault model:

* every grant is a **lease** with a deadline; workers heartbeat
  long-running studies to renew it;
* a worker that disconnects or lets its lease expire gets the job
  **re-queued** (the event is recorded) until ``max_attempts``, after
  which the job lands as PR 4's synthetic ``failed_stage="worker"``
  row — the sweep always completes;
* rows live in a content-addressed :class:`~repro.fabric.store.ResultStore`,
  so an address is computed at most once per fleet (late duplicates
  from zombie workers are dropped) and ``resume_path`` rebuilds the
  done-set from a previous run's JSONL — a killed sweep continues
  instead of restarting;
* workers ship the dwell-curve entries they measured with each result;
  the coordinator merges them and forwards the fleet-wide cache with
  every grant, so one worker's measurement is every worker's hit;
* results travel without their measured curves: the characterize
  artifact's ``curves`` is ``null`` on the wire.  When it keeps
  results (``keep_results``), the coordinator rebuilds them from its own
  dwell cache and its own copy of the job's scenario
  (:func:`~repro.pipeline.stages.measured_curves`), measuring any entry
  no message delivered; rows never read curves;
* every connection read carries a deadline (``read_deadline``,
  default ``4 x lease_timeout``): a half-open worker surfaces as a
  typed :class:`~repro.fabric.protocol.ChannelTimeout`, its
  connection is dropped and its leases re-queued, and the handler
  thread is reclaimed — it can never hang the coordinator;
* a garbled line (:class:`~repro.fabric.protocol.ProtocolError`), or
  a ``result`` that does not decode or carries anything but ``null``
  curves, fails only the connection that sent it — counted in
  ``config["fabric"]["protocol_errors"]``, leases re-queued, accept
  loop untouched;
* resuming from a torn JSONL (the artifact of a killed writer)
  recovers the intact prefix and reports the torn row in
  ``config["fabric"]["recovered_tail"]``.

Every recovery is accounted: ``config["fabric"]`` carries the requeue
ledger, protocol-error / read-timeout / duplicate counters, resume
statistics and (when a chaos storm is active) the chaos seed and
profile — so a sweep that survived a fault storm says exactly what it
survived.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.fabric.protocol import (
    ACCEPT_POLL_INTERVAL,
    ChannelTimeout,
    LineChannel,
    LineServer,
    ProtocolError,
)
from repro.fabric.store import ResultStore
from repro.pipeline.cache import (
    DwellCurveCache,
    GLOBAL_DWELL_CACHE,
    decode_entries,
    encode_entries,
)
from repro.pipeline.result import StudyResult
from repro.pipeline.scenario import Scenario
from repro.pipeline.serialize import to_jsonable
from repro.pipeline.stages import measured_curves
from repro.pipeline.sweep import (
    SweepJob,
    SweepResult,
    crash_row,
    expand_cells,
    fixed_jobs,
    merge_rows,
    open_jsonl,
    study_row,
)


class FabricTimeout(RuntimeError):
    """The fleet did not finish the sweep within the caller's timeout."""


@dataclass
class _Lease:
    worker: str
    deadline: float
    attempt: int


class SweepCoordinator:
    """Serves one fixed sweep to a worker fleet and merges the rows.

    Parameters
    ----------
    base, axes, replications, seed0:
        The sweep spec, exactly as :func:`run_sweep` takes it (fixed
        mode; the adaptive stopping rule needs round barriers and stays
        a single-host feature).
    host, port:
        Listen endpoint; port 0 picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    lease_timeout:
        Seconds a leased job may go without a result or heartbeat
        before it is re-queued.
    read_deadline:
        Per-read timeout on worker connections (defaults to
        ``4 x lease_timeout``).  A healthy worker leases or heartbeats
        far more often; a connection silent past this is treated as
        half-open, closed, and its leases re-queued.
    max_attempts:
        Lease attempts per job before it is recorded as a synthetic
        ``failed_stage="worker"`` row instead of re-queued.
    cache:
        Fleet-shared dwell-curve cache (defaults to the process-wide
        one); worker exports merge into it, grants ship it out.
    jsonl_path:
        Stream every finished row as one JSON line (written once per
        content address — resumed rows are not rewritten).
    resume_path:
        Rebuild the done-set from this JSONL before dispatching;
        usually the same file as ``jsonl_path`` (the coordinator then
        appends).  Missing file is fine — there is nothing to resume.
    """

    def __init__(
        self,
        base: Union[Scenario, str],
        axes: Optional[Dict[str, Sequence[Any]]] = None,
        replications: int = 1,
        seed0: int = 0,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 30.0,
        read_deadline: Optional[float] = None,
        max_attempts: int = 3,
        cache: Optional[DwellCurveCache] = None,
        jsonl_path: Optional[str] = None,
        resume_path: Optional[str] = None,
        keep_results: bool = False,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if read_deadline is not None and read_deadline <= 0:
            raise ValueError(f"read_deadline must be positive, got {read_deadline}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if isinstance(base, str):
            from repro.pipeline.registry import get_scenario

            base = get_scenario(base)
        self.base = base
        self._cells = expand_cells(base, axes)
        self.jobs = fixed_jobs(base, axes, replications, seed0)
        self._spec_config = {
            "mode": "fixed",
            "min_replications": replications,
            "seed0": seed0,
        }
        self._jobs_by_address: Dict[str, Any] = {}
        for job in self.jobs:
            self._jobs_by_address.setdefault(job.address, job)
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.read_deadline = (
            read_deadline if read_deadline is not None else 4.0 * lease_timeout
        )
        self.max_attempts = max_attempts
        self.cache = cache if cache is not None else GLOBAL_DWELL_CACHE
        self.keep_results = keep_results
        self.store = ResultStore()
        self.requeues: List[Dict[str, Any]] = []
        self.duplicates_ignored = 0
        self.resumed = 0
        self.retried_worker_failures = 0
        self.recovered_tail = 0
        self.protocol_errors = 0
        self.read_timeouts = 0
        #: Chaos storm descriptor (seed/profile), attached by
        #: :func:`run_fabric_sweep` when the fleet runs faulted —
        #: surfaced in ``config["fabric"]["chaos"]``.
        self.chaos_info: Optional[Dict[str, Any]] = None
        #: Thread-mode worker recovery ledgers, aggregated by
        #: :func:`run_fabric_sweep` after the fleet joins.
        self.worker_stats: Optional[Dict[str, Dict[str, int]]] = None
        self._results: Dict[str, StudyResult] = {}
        self._pending: Deque[str] = deque()
        self._leases: Dict[str, _Lease] = {}
        self._attempts: Dict[str, int] = {}
        self._shipped: Dict[str, set] = {}
        self._workers_seen: List[str] = []
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._server: Optional[LineServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._elapsed: Optional[float] = None

        if resume_path is not None:
            try:
                report = self.store.load_jsonl(
                    resume_path, wanted=self._jobs_by_address
                )
            except FileNotFoundError:
                report = None
            if report is not None:
                self.resumed = report.adopted
                self.retried_worker_failures = report.skipped
                self.recovered_tail = report.recovered_tail
                if report.recovered_tail and resume_path == jsonl_path:
                    # heal the torn stub before appending, or the next
                    # streamed row would fuse with it into one corrupt
                    # line and poison the *next* resume
                    raw = Path(resume_path).read_bytes()
                    Path(resume_path).write_bytes(raw[: raw.rfind(b"\n") + 1])
            for address in list(self._jobs_by_address):
                row = self.store.get(address)
                if row is not None:
                    row["cache_hit"] = True
        jsonl_mode = "a" if resume_path is not None and resume_path == jsonl_path else "w"
        self._writer = open_jsonl(jsonl_path, mode=jsonl_mode)
        for address in dict.fromkeys(job.address for job in self.jobs):
            if address not in self.store:
                self._pending.append(address)
        self._check_complete_locked()

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Bind the listen socket and serve worker connections."""
        self._server = LineServer((self.host, self.port), self)
        self.port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": ACCEPT_POLL_INTERVAL},
            name="fabric-coordinator",
            daemon=True,
        )
        self._started_at = time.perf_counter()
        self._server_thread.start()

    def stop(self) -> None:
        if self._elapsed is None and self._started_at is not None:
            self._elapsed = time.perf_counter() - self._started_at
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until every job has a row; reap leases while waiting."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._done.wait(0.2):
            with self._lock:
                self._reap_locked()
            if deadline is not None and time.monotonic() > deadline:
                raise FabricTimeout(
                    f"sweep incomplete after {timeout:g}s "
                    f"({len(self.store)}/{len(self._jobs_by_address)} rows); "
                    f"rows streamed so far can seed a --resume run"
                )

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    # -- worker connection plane --------------------------------------

    def _serve_connection(self, channel: LineChannel) -> None:
        worker = None
        try:
            while True:
                try:
                    msg = channel.recv_msg(timeout=self.read_deadline)
                except ChannelTimeout:
                    # half-open or stalled peer: reclaim the handler
                    # thread; any leases re-queue on release below
                    with self._lock:
                        self.read_timeouts += 1
                    break
                except ProtocolError:
                    # a garbled line fails only this connection — the
                    # accept loop and every other worker keep going
                    with self._lock:
                        self.protocol_errors += 1
                    break
                except OSError:
                    break
                if msg is None:
                    break
                kind = msg["type"]
                if kind == "result":
                    try:
                        self._land(str(msg.get("worker", worker)), msg)
                    except ProtocolError:
                        # an undecodable result is handled like a
                        # garbled line: counted, connection dropped
                        with self._lock:
                            self.protocol_errors += 1
                        break
                    continue
                try:
                    if kind == "hello":
                        worker = str(msg.get("worker", "anonymous"))
                        with self._lock:
                            if worker not in self._workers_seen:
                                self._workers_seen.append(worker)
                            self._shipped.setdefault(worker, set())
                        channel.send_msg("ok", worker=worker)
                    elif kind == "lease":
                        worker = str(msg.get("worker", worker or "anonymous"))
                        self._grant(channel, worker)
                    elif kind == "heartbeat":
                        self._renew(str(msg.get("worker", worker)), msg.get("job_id"))
                    else:
                        channel.send_msg(
                            "error", detail=f"unexpected {kind!r} on the sweep plane"
                        )
                except OSError:
                    # the peer hung up before our reply: the connection
                    # ends here, and its leases re-queue below
                    break
        finally:
            channel.close()
            if worker is not None:
                self._release_worker(worker)

    def _grant(self, channel: LineChannel, worker: str) -> None:
        with self._lock:
            self._reap_locked()
            job = None
            attempt = 0
            while self._pending:
                address = self._pending.popleft()
                if address in self.store:
                    continue
                job = self._jobs_by_address[address]
                attempt = self._attempts.get(address, 0) + 1
                self._attempts[address] = attempt
                self._leases[address] = _Lease(
                    worker=worker,
                    deadline=time.monotonic() + self.lease_timeout,
                    attempt=attempt,
                )
                break
            finished = self._done.is_set()
        if job is None:
            if finished:
                channel.send_msg("shutdown")
            else:
                # everything is leased out; the worker naps and re-asks
                # (an expired lease may put a job back on the queue)
                channel.send_msg("wait", retry_after=0.05)
            return
        exports = self.cache.export_entries(exclude=self._shipped.get(worker, set()))
        if exports:
            with self._lock:
                self._shipped.setdefault(worker, set()).update(exports)
        channel.send_msg(
            "job",
            job_id=job.address,
            cell=job.cell,
            rep=job.rep,
            attempt=attempt,
            scenario=job.scenario.to_dict(),
            lease_timeout=self.lease_timeout,
            cache=encode_entries(exports) if exports else None,
        )

    def _renew(self, worker: str, address: Optional[str]) -> None:
        if address is None:
            return
        with self._lock:
            lease = self._leases.get(address)
            if lease is not None and lease.worker == worker:
                lease.deadline = time.monotonic() + self.lease_timeout

    def _land(self, worker: str, msg: Dict[str, Any]) -> None:
        """Record a worker's result; :class:`ProtocolError` if it does
        not decode (nothing from the message is kept then)."""
        address = msg.get("job_id")
        job = self._jobs_by_address.get(address)
        if job is None:
            return
        result: Optional[StudyResult] = None
        if msg.get("error") is not None:
            # the study itself raised inside the worker — terminal, the
            # same crash-proof accounting run_sweep applies in-process
            row = crash_row(job.cell, job.scenario, 0, RuntimeError(msg["error"]))
            row["detail"] = str(msg["error"])
        else:
            result, row = _decode_result(job, msg.get("result"))
        blob = msg.get("cache")
        if blob:
            entries = decode_entries(blob)
            self.cache.merge_entries(entries)
            with self._lock:
                self._shipped.setdefault(worker, set()).update(entries)
        if self.keep_results and result is not None:
            # after the merge above, so the curves this message carried
            # are hits; anything still missing is measured here
            result = _with_curves(result, job.scenario, self.cache)
        row["worker"] = worker
        row["attempt"] = msg.get("attempt")
        with self._lock:
            self._leases.pop(address, None)
            self._record_locked(address, row, result)

    def _release_worker(self, worker: str) -> None:
        with self._lock:
            held = [
                address
                for address, lease in self._leases.items()
                if lease.worker == worker
            ]
            for address in held:
                self._requeue_locked(address, reason="disconnect")

    # -- lease bookkeeping (all *_locked under self._lock) -------------

    def _reap_locked(self) -> None:
        now = time.monotonic()
        expired = [
            address
            for address, lease in self._leases.items()
            if lease.deadline < now
        ]
        for address in expired:
            self._requeue_locked(address, reason="lease-expired")

    def _requeue_locked(self, address: str, reason: str) -> None:
        lease = self._leases.pop(address, None)
        if address in self.store:
            return
        job = self._jobs_by_address[address]
        attempt = self._attempts.get(address, 0)
        self.requeues.append(
            {
                "address": address,
                "cell": job.cell,
                "seed": job.scenario.seed,
                "worker": lease.worker if lease else None,
                "attempt": attempt,
                "reason": reason,
            }
        )
        if attempt >= self.max_attempts:
            row = crash_row(
                job.cell,
                job.scenario,
                0,
                RuntimeError(
                    f"worker {reason} after {attempt} lease attempt(s)"
                ),
            )
            row["worker"] = lease.worker if lease else None
            row["attempt"] = attempt
            self._record_locked(address, row, None)
        else:
            self._pending.appendleft(address)

    def _record_locked(
        self,
        address: str,
        row: Dict[str, Any],
        result: Optional[StudyResult],
    ) -> None:
        if not self.store.put(address, row):
            self.duplicates_ignored += 1
            return
        if self.keep_results and result is not None:
            self._results[address] = result
        if self._writer is not None:
            self._writer.write(json.dumps(to_jsonable(row)) + "\n")
            self._writer.flush()
        self._check_complete_locked()

    def _check_complete_locked(self) -> None:
        if len(self.store) >= len(self._jobs_by_address):
            if self._elapsed is None and self._started_at is not None:
                self._elapsed = time.perf_counter() - self._started_at
            self._done.set()

    # -- merge ---------------------------------------------------------

    def result(self) -> SweepResult:
        """Merge the collected rows into a :class:`SweepResult` that is
        bitwise identical (row values, per-cell statistics) to serial
        ``run_sweep`` on the same spec — rows fold in dispatch order,
        not arrival order."""
        if not self._done.is_set():
            raise RuntimeError(
                "sweep incomplete; call wait() before result()"
            )
        rows = [self.store.get(job.address) for job in self.jobs]
        results = [
            self._results[job.address]
            for job in self.jobs
            if job.address in self._results
        ]
        config = dict(self._spec_config)
        config["fabric"] = {
            "workers": list(self._workers_seen),
            "lease_timeout": self.lease_timeout,
            "read_deadline": self.read_deadline,
            "max_attempts": self.max_attempts,
            "requeues": list(self.requeues),
            "resumed": self.resumed,
            "retried_worker_failures": self.retried_worker_failures,
            "recovered_tail": self.recovered_tail,
            "duplicates_ignored": self.duplicates_ignored,
            "protocol_errors": self.protocol_errors,
            "read_timeouts": self.read_timeouts,
            "cache_hits": self.resumed + self.store.hits,
        }
        if self.chaos_info is not None:
            config["fabric"]["chaos"] = dict(self.chaos_info)
        if self.worker_stats is not None:
            config["fabric"]["worker_stats"] = {
                worker: dict(stats) for worker, stats in self.worker_stats.items()
            }
        elapsed = self._elapsed if self._elapsed is not None else 0.0
        return merge_rows(
            self.base,
            self._cells,
            rows,
            executor="fabric",
            elapsed=elapsed,
            results=results,
            config=config,
        )


def _decode_result(job: SweepJob, payload: Any) -> Tuple[StudyResult, Dict[str, Any]]:
    """A worker's ``result`` payload as a :class:`StudyResult` and its row.

    Workers send the characterize artifact's ``curves`` as ``null``
    (:func:`_with_curves` rebuilds them), so the key must be present
    and ``null`` exactly where the job's own scenario measures curves.
    Anything else raises :class:`ProtocolError`.
    """
    try:
        result = StudyResult.from_dict(payload)
        row = study_row(job.cell, result, 0)
        record = result.stage("characterize")
        has_curves = "curves" in record.artifact
        curves = record.artifact.get("curves")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"undecodable result for job {job.address}: {exc!r}"
        ) from None
    measured = record.ok and job.scenario.source != "paper"
    if has_curves != measured or curves is not None:
        raise ProtocolError(
            f"result for job {job.address}: characterize 'curves' must be "
            + ("present and null" if measured else "absent")
        )
    return result, row


def _with_curves(
    result: StudyResult, scenario: Scenario, cache: DwellCurveCache
) -> StudyResult:
    """``result`` with the characterize ``curves`` (sent as ``null``)
    re-derived from ``cache`` for the coordinator's copy of the job's
    scenario; the key keeps its place in the artifact."""
    stages = []
    for record in result.stages:
        if record.name == "characterize" and "curves" in record.artifact:
            curves = measured_curves(scenario, cache)
            record = dataclasses.replace(
                record, artifact={**record.artifact, "curves": curves}
            )
        stages.append(record)
    return dataclasses.replace(result, stages=tuple(stages))


def run_fabric_sweep(
    base: Union[Scenario, str],
    axes: Optional[Dict[str, Sequence[Any]]] = None,
    replications: int = 1,
    seed0: int = 0,
    *,
    workers: int = 2,
    worker_mode: str = "thread",
    host: str = "127.0.0.1",
    port: int = 0,
    lease_timeout: float = 30.0,
    read_deadline: Optional[float] = None,
    max_attempts: int = 3,
    cache: Optional[DwellCurveCache] = None,
    jsonl_path: Optional[str] = None,
    resume_path: Optional[str] = None,
    keep_results: bool = False,
    worker_caches: Optional[Sequence[DwellCurveCache]] = None,
    timeout: Optional[float] = None,
    chaos_seed: Optional[int] = None,
    chaos_profile: Optional[str] = None,
    fault_plans: Optional[Sequence[Any]] = None,
    worker_recv_timeout: Optional[float] = 60.0,
) -> SweepResult:
    """Run one fixed sweep on a local fleet; the drop-in distributed
    twin of :func:`~repro.pipeline.sweep.run_sweep`.

    Starts a :class:`SweepCoordinator`, spins up ``workers`` local
    workers (in-process threads by default, ``worker_mode="process"``
    for real subprocesses), waits for every row, and merges.  The
    returned :class:`SweepResult` is bitwise identical in rows and
    per-cell statistics to serial ``run_sweep`` on the same spec.

    ``worker_caches`` (thread mode) pins each worker to its own
    :class:`DwellCurveCache` — the default, and what the cache-sharing
    tests use to prove entries travel over the wire rather than through
    shared process memory.

    Chaos: ``chaos_profile`` + ``chaos_seed`` run the whole fleet
    under a named seeded fault storm
    (:func:`~repro.fabric.resilience.chaos_plan` per worker), or pass
    explicit per-worker ``fault_plans`` (thread mode).  The merged
    result must *still* be bitwise identical to serial — faults only
    exercise the recovery machinery, never the data — and the storm is
    recorded in ``config["fabric"]["chaos"]``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if worker_mode not in ("thread", "process"):
        raise ValueError(f"worker_mode must be 'thread' or 'process', got {worker_mode!r}")
    if chaos_seed is not None and chaos_profile is None:
        raise ValueError("chaos_seed needs chaos_profile (the storm to seed)")
    if fault_plans is not None and chaos_profile is not None:
        raise ValueError("pass either fault_plans or chaos_profile, not both")
    if fault_plans is not None and worker_mode != "thread":
        raise ValueError("explicit fault_plans need worker_mode='thread'")
    from repro.fabric.resilience import fleet_plans
    from repro.fabric.worker import FabricWorker, spawn_worker_process

    if chaos_profile is not None:
        chaos_seed = 0 if chaos_seed is None else chaos_seed
        fault_plans = fleet_plans(
            chaos_profile, chaos_seed, workers, lease_timeout=lease_timeout
        )

    coordinator = SweepCoordinator(
        base,
        axes,
        replications,
        seed0,
        host=host,
        port=port,
        lease_timeout=lease_timeout,
        read_deadline=read_deadline,
        max_attempts=max_attempts,
        cache=cache,
        jsonl_path=jsonl_path,
        resume_path=resume_path,
        keep_results=keep_results,
    )
    if chaos_profile is not None:
        coordinator.chaos_info = {"seed": chaos_seed, "profile": chaos_profile}
    elif fault_plans is not None:
        coordinator.chaos_info = {"seed": None, "profile": "custom"}
    coordinator.start()
    threads: List[threading.Thread] = []
    fleet: List[Any] = []
    procs = []
    try:
        if not coordinator.finished:
            if worker_mode == "thread":
                for i in range(workers):
                    worker_cache = (
                        worker_caches[i]
                        if worker_caches is not None and i < len(worker_caches)
                        else DwellCurveCache()
                    )
                    fw = FabricWorker(
                        coordinator.host,
                        coordinator.port,
                        worker_id=f"local-{i}",
                        cache=worker_cache,
                        fault_plan=(
                            fault_plans[i]
                            if fault_plans is not None and i < len(fault_plans)
                            else None
                        ),
                        recv_timeout=worker_recv_timeout,
                    )
                    fleet.append(fw)
                    t = threading.Thread(
                        target=fw.run, name=f"fabric-{fw.worker_id}", daemon=True
                    )
                    t.start()
                    threads.append(t)
            else:
                procs = [
                    spawn_worker_process(
                        coordinator.host,
                        coordinator.port,
                        worker_id=f"proc-{i}",
                        chaos_seed=chaos_seed,
                        chaos_profile=chaos_profile,
                        chaos_index=i,
                        chaos_fleet=workers,
                    )
                    for i in range(workers)
                ]
        coordinator.wait(timeout=timeout)
    finally:
        coordinator.stop()
        for t in threads:
            t.join(timeout=5.0)
        for p in procs:
            p.terminate()
            p.wait(timeout=10.0)
    if fleet:
        coordinator.worker_stats = {fw.worker_id: fw.stats for fw in fleet}
    return coordinator.result()


__all__ = ["FabricTimeout", "SweepCoordinator", "run_fabric_sweep"]
