"""Content-addressed design-study service (``repro serve``).

The service turns the pipeline into a long-lived endpoint: clients
``submit`` a scenario (inline ``to_dict()`` JSON or a registry name)
or a fixed sweep spec, get back a job id, and poll ``status`` /
``fetch`` for the finished artifact.  Jobs run on a thread pool; their
records walk the :data:`JOB_STATES` lifecycle
(``queued -> running -> done | failed``) under
:meth:`JobRecord.advance`, which rejects any transition not in that
order — a job can never un-finish.

Results are cached by **content address** — the same
``scenario_fingerprint+seed`` key the sweep fabric uses — so
resubmitting an identical study (whatever its name) returns the
already-computed artifact immediately, with ``cache_hit`` marked in
both the job record and the result provenance.

Resilience (PR 10): the request handler reads under a deadline
(``read_deadline``) so an idle half-open client releases its handler
thread instead of pinning it forever, and a garbled request fails only
that connection.  :class:`ServiceClient` retries each call (dial +
round-trip) under a seeded
:class:`~repro.fabric.resilience.RetryPolicy`, and ``wait_for`` polls
with the same jittered backoff instead of a fixed nap — a briefly
unreachable service looks slow, not broken.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.fabric.protocol import (
    ACCEPT_POLL_INTERVAL,
    ChannelTimeout,
    LineChannel,
    LineServer,
    connect,
)
from repro.fabric.resilience import RetryPolicy
from repro.pipeline.cache import DwellCurveCache, GLOBAL_DWELL_CACHE
from repro.pipeline.runner import DesignStudy
from repro.pipeline.scenario import Scenario
from repro.pipeline.serialize import to_jsonable

#: Lifecycle of a submitted job, in order; transitions only move right.
JOB_STATES = ("queued", "running", "done", "failed")


class JobRecord:
    """One submitted job's lifecycle and (eventually) its artifact."""

    def __init__(self, job_id: str, address: str, kind: str):
        self.job_id = job_id
        self.address = address
        self.kind = kind
        self.state = "queued"
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.cache_hit = False

    def advance(self, state: str) -> None:
        """Move to ``state``; only forward transitions through
        :data:`JOB_STATES` are legal."""
        if state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {state!r}; expected one of {list(JOB_STATES)}"
            )
        if JOB_STATES.index(state) <= JOB_STATES.index(self.state):
            raise ValueError(
                f"job {self.job_id} cannot go {self.state!r} -> {state!r}"
            )
        self.state = state
        if state in ("done", "failed"):
            self.finished_at = time.time()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "address": self.address,
            "job_kind": self.kind,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "cache_hit": self.cache_hit,
        }


def sweep_address(
    base: Scenario,
    axes: Optional[Dict[str, Any]],
    replications: int,
    seed0: int,
) -> str:
    """Content address of a whole fixed sweep spec: the base scenario's
    fingerprint crossed with the axes/replication plan."""
    spec = {
        "base": base.fingerprint(),
        "axes": axes or {},
        "replications": replications,
        "seed0": seed0,
    }
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"), default=list)
    return "sweep-" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class StudyService:
    """Socket front-end running studies on a bounded thread pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pool_size: int = 2,
        cache: Optional[DwellCurveCache] = None,
        read_deadline: Optional[float] = 120.0,
    ):
        if read_deadline is not None and read_deadline <= 0:
            raise ValueError(f"read_deadline must be positive, got {read_deadline}")
        self.host = host
        self.port = port
        self.read_deadline = read_deadline
        self.cache = cache if cache is not None else GLOBAL_DWELL_CACHE
        self.jobs: Dict[str, JobRecord] = {}
        self._by_address: Dict[str, str] = {}
        self._artifacts: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="study"
        )
        self._server: Optional[LineServer] = None
        self._server_thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        self._server = LineServer((self.host, self.port), self)
        self.port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": ACCEPT_POLL_INTERVAL},
            name="study-service",
            daemon=True,
        )
        self._server_thread.start()

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        self._pool.shutdown(wait=False)

    def serve_forever(self) -> None:
        """Blocking variant for the ``repro serve`` CLI."""
        if self._server is None:
            self.start()
        assert self._server_thread is not None
        self._server_thread.join()

    # -- request plane ------------------------------------------------

    def _serve_connection(self, channel: LineChannel) -> None:
        try:
            while True:
                try:
                    msg = channel.recv_msg(timeout=self.read_deadline)
                except ChannelTimeout:
                    # idle half-open client: reclaim the handler thread
                    break
                except Exception as exc:
                    try:
                        channel.send_msg("error", detail=str(exc))
                    except OSError:
                        pass
                    break
                if msg is None:
                    break
                try:
                    self._dispatch(channel, msg)
                except Exception as exc:
                    channel.send_msg("error", detail=repr(exc))
        finally:
            channel.close()

    def _dispatch(self, channel: LineChannel, msg: Dict[str, Any]) -> None:
        kind = msg["type"]
        if kind == "submit":
            job_id, record = self.submit(msg)
            channel.send_msg("ok", **record.snapshot())
        elif kind == "status":
            record = self._record(msg.get("job_id"))
            channel.send_msg("ok", **record.snapshot())
        elif kind == "fetch":
            record = self._record(msg.get("job_id"))
            artifact = self._artifacts.get(record.address)
            channel.send_msg(
                "ok", artifact=artifact, **record.snapshot()
            )
        else:
            channel.send_msg(
                "error", detail=f"unexpected {kind!r} on the service plane"
            )

    def _record(self, job_id: Optional[str]) -> JobRecord:
        with self._lock:
            record = self.jobs.get(job_id or "")
        if record is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return record

    # -- job intake ---------------------------------------------------

    def submit(self, msg: Dict[str, Any]) -> Tuple[str, JobRecord]:
        """Register a study or sweep job; content-address dedup means an
        identical resubmission reuses the existing record/artifact."""
        if msg.get("scenario") is not None:
            scenario = Scenario.from_dict(msg["scenario"])
            address = scenario.content_address()
            kind = "study"
            runner = lambda: self._run_study(scenario)  # noqa: E731
        elif msg.get("name") is not None:
            from repro.pipeline.registry import get_scenario

            scenario = get_scenario(msg["name"])
            if msg.get("seed") is not None:
                scenario = scenario.derive(seed=int(msg["seed"]))
            address = scenario.content_address()
            kind = "study"
            runner = lambda: self._run_study(scenario)  # noqa: E731
        elif msg.get("sweep") is not None:
            spec = dict(msg["sweep"])
            base = (
                Scenario.from_dict(spec["base"])
                if isinstance(spec.get("base"), dict)
                else None
            )
            if base is None:
                from repro.pipeline.registry import get_scenario

                base = get_scenario(spec["base"])
            axes = spec.get("axes")
            replications = int(spec.get("replications", 1))
            seed0 = int(spec.get("seed0", 0))
            address = sweep_address(base, axes, replications, seed0)
            kind = "sweep"
            runner = lambda: self._run_sweep(base, axes, replications, seed0)  # noqa: E731
        else:
            raise ValueError(
                "submit needs one of 'scenario' (inline dict), 'name' "
                "(registry scenario), or 'sweep' (fixed sweep spec)"
            )

        with self._lock:
            existing = self._by_address.get(address)
            if existing is not None and self.jobs[existing].state != "failed":
                record = self.jobs[existing]
                record.cache_hit = True
                return existing, record
            job_id = f"job-{uuid.uuid4().hex[:12]}"
            record = JobRecord(job_id, address, kind)
            self.jobs[job_id] = record
            self._by_address[address] = job_id
        self._pool.submit(self._execute, record, runner)
        return job_id, record

    def _execute(self, record: JobRecord, runner) -> None:
        record.advance("running")
        try:
            artifact = runner()
        except Exception as exc:
            record.error = repr(exc)
            record.advance("failed")
            return
        with self._lock:
            self._artifacts[record.address] = artifact
        record.advance("done")

    def _run_study(self, scenario: Scenario) -> Dict[str, Any]:
        result = DesignStudy(scenario, cache=self.cache).run()
        result = result.with_provenance(service=True)
        return to_jsonable(result.to_dict())

    def _run_sweep(
        self,
        base: Scenario,
        axes: Optional[Dict[str, Any]],
        replications: int,
        seed0: int,
    ) -> Dict[str, Any]:
        from repro.pipeline.sweep import run_sweep

        result = run_sweep(
            base,
            axes,
            replications=replications,
            seed0=seed0,
            max_workers=1,
            cache=self.cache,
        )
        return to_jsonable(result.to_dict())


class ServiceClient:
    """Tiny blocking client for the study service (one dial per call).

    Every call retries the whole dial-and-round-trip under ``retry``
    (refused dials, EOF, reply deadline) — safe because the service is
    content-addressed, so a replayed ``submit`` dedups to the same job.
    ``timeout`` bounds both the dial and the wait for the reply line.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        *,
        retry: Optional[RetryPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(max_attempts=4, base_delay=0.05, seed=0)
        )

    def _call(self, kind: str, **fields: Any) -> Dict[str, Any]:
        def round_trip() -> Dict[str, Any]:
            channel = connect(self.host, self.port, timeout=self.timeout)
            try:
                channel.send_msg(kind, **fields)
                reply = channel.recv_msg(timeout=self.timeout)
            finally:
                channel.close()
            if reply is None:
                raise ConnectionError("service hung up without replying")
            return reply

        # ChannelTimeout is a TimeoutError, itself an OSError: one
        # retry_on class covers refused dials, EOF and reply deadlines
        reply = self.retry.call(round_trip, retry_on=(OSError,))
        if reply["type"] == "error":
            raise RuntimeError(f"service error: {reply.get('detail')}")
        return reply

    def submit_scenario(self, scenario: Scenario) -> Dict[str, Any]:
        return self._call("submit", scenario=scenario.to_dict())

    def submit_name(self, name: str, seed: Optional[int] = None) -> Dict[str, Any]:
        return self._call("submit", name=name, seed=seed)

    def submit_sweep(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        return self._call("submit", sweep=spec)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._call("status", job_id=job_id)

    def fetch(self, job_id: str) -> Dict[str, Any]:
        return self._call("fetch", job_id=job_id)

    def wait_for(
        self, job_id: str, timeout: float = 60.0, poll: float = 0.1
    ) -> Dict[str, Any]:
        """Poll ``status`` until the job finishes, then ``fetch`` it.

        Polls back off under :attr:`retry`'s jittered schedule with
        ``poll`` as the floor, so a fleet of waiting clients spreads
        its polls instead of hammering in lockstep."""
        deadline = time.monotonic() + timeout
        attempt = 0
        while True:
            snap = self.status(job_id)
            if snap["state"] in ("done", "failed"):
                return self.fetch(job_id)
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snap['state']!r} after {timeout:g}s"
                )
            attempt += 1
            self.retry.sleep(attempt, floor=poll)


__all__ = [
    "JOB_STATES",
    "JobRecord",
    "ServiceClient",
    "StudyService",
    "sweep_address",
]
