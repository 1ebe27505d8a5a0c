"""Fabric worker: lease jobs, run studies, ship rows and cache entries.

A worker is a thin loop around the same :class:`DesignStudy` engine the
serial sweep uses — given the identical scenario and seed it produces
the identical :class:`StudyResult`, which is the whole bitwise-parity
story: the fabric only moves work, it never changes it.

Per job the worker:

1. merges the coordinator-shipped dwell-cache delta into its local
   cache (fleet-wide sharing, PR 3's ``merge_entries`` seam);
2. heartbeats every ``lease_timeout / 3`` so a slow study keeps its
   lease while a dead process loses it — one heartbeat thread per
   session beats for the job currently held, and sends nothing between
   jobs;
3. runs the study and sends the result back together with the dwell
   entries it newly measured (``export_entries`` minus what it already
   knows the coordinator has).  The result's characterize ``curves``
   go out as ``null``; the coordinator re-derives them from its cache.

Resilience (PR 10): every improvised wait became
:class:`~repro.fabric.resilience.RetryPolicy` — dialing a coordinator
that is not up yet backs off instead of failing instantly, the
lease-denied nap honours the coordinator's ``retry_after`` with seeded
jitter, and a broken session (EOF, garbled line, read deadline hit)
reconnects with backoff instead of killing the worker.  Every read
carries a deadline (``recv_timeout``) so a half-open coordinator can
never hang the process; :attr:`FabricWorker.stats` tallies the
recoveries.

Fault injection: ``fault_plan`` runs the whole connection under a
seeded :class:`~repro.fabric.resilience.FaultyChannel` storm — drop /
delay / duplicate / garble / stall / crash — for the chaos matrix and
the CI ``chaos-smoke`` job; ``FaultPlan(crash_at_message=N)`` alone
kills the worker in place of its N-th result, holding that job's
lease.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.fabric.protocol import (
    ChannelTimeout,
    LineChannel,
    ProtocolError,
    connect,
)
from repro.fabric.resilience import (
    FaultPlan,
    FaultyChannel,
    InjectedCrash,
    RetryPolicy,
)
from repro.pipeline.cache import (
    DwellCurveCache,
    GLOBAL_DWELL_CACHE,
    decode_entries,
    encode_entries,
)
from repro.pipeline.runner import DesignStudy
from repro.pipeline.scenario import Scenario


class _Heartbeat:
    """One session's heartbeat thread.

    While :meth:`hold` names a job, the thread sends a ``heartbeat`` for
    it every ``lease_timeout / 3``, the first one that long after the
    hold; between :meth:`release` and the next hold it sends nothing.
    A beat goes out under the same lock ``hold``/``release`` take, so
    once ``release`` returns no beat for that job is sent any more.
    :meth:`stop` ends the thread with the session.
    """

    def __init__(self, channel: Union[LineChannel, FaultyChannel], worker_id: str):
        self._channel = channel
        self._worker_id = worker_id
        self._cond = threading.Condition()
        self._job: Optional[Tuple[str, float]] = None  # (address, interval)
        self._stopped = False
        self.thread = threading.Thread(
            target=self._beat, name=f"{worker_id}-heartbeat", daemon=True
        )
        self.thread.start()

    def hold(self, address: str, lease_timeout: float) -> None:
        with self._cond:
            self._job = (address, lease_timeout / 3.0)
            self._cond.notify()

    def release(self) -> None:
        with self._cond:
            self._job = None
            self._cond.notify()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify()

    def _beat(self) -> None:
        with self._cond:
            while not self._stopped:
                job = self._job
                if job is None:
                    self._cond.wait()
                    continue
                # a new hold, a release or the stop wakes the wait early
                if self._cond.wait_for(
                    lambda: self._stopped or self._job is not job, timeout=job[1]
                ):
                    continue
                try:
                    self._channel.send_msg(
                        "heartbeat", worker=self._worker_id, job_id=job[0]
                    )
                except OSError:
                    return


class FabricWorker:
    """One worker process/thread's connection to a sweep coordinator.

    ``retry`` governs every backoff the worker performs (dial,
    reconnect, lease-denied wait); its jitter stream is seeded from the
    worker id by default so fleet members never nap in lockstep.
    ``recv_timeout`` is the per-read deadline: a coordinator that goes
    half-open mid-conversation surfaces as a typed
    :class:`~repro.fabric.protocol.ChannelTimeout` and a reconnect, not
    a hung process.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: Optional[str] = None,
        cache: Optional[DwellCurveCache] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        recv_timeout: Optional[float] = 60.0,
    ):
        self.host = host
        self.port = port
        self.worker_id = worker_id or f"worker-{os.getpid()}-{id(self) & 0xFFFF:04x}"
        self.cache = cache if cache is not None else GLOBAL_DWELL_CACHE
        self.fault_plan = fault_plan
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(seed=zlib.crc32(self.worker_id.encode("utf-8")))
        )
        if fault_plan is not None and fault_plan.recv_timeout is not None:
            recv_timeout = fault_plan.recv_timeout
        self.recv_timeout = recv_timeout
        self.jobs_done = 0
        #: Recovery ledger: dial retries, session reconnects, read
        #: deadlines hit, lease-denied waits — the retry machinery's
        #: own accounting, assertable in chaos tests.
        self.stats = {
            "connect_retries": 0,
            "reconnects": 0,
            "read_timeouts": 0,
            "wait_naps": 0,
        }
        self._injector = fault_plan.injector() if fault_plan is not None else None
        self._shipped: set = set()
        self._channel: Optional[Union[LineChannel, FaultyChannel]] = None
        self._heartbeat: Optional[_Heartbeat] = None

    def run(self) -> int:
        """Lease-and-run until the coordinator says ``shutdown``.

        Returns the number of jobs completed.  Transport failures —
        refused dials, EOF mid-session, garbled replies, read
        deadlines — retry under :attr:`retry`; an injected crash exits
        by dropping the socket mid-lease (simulated crash), leaving any
        leased job for the coordinator to re-queue.
        """
        failures = 0
        try:
            while True:
                try:
                    channel = self._dial()
                except OSError:
                    failures += 1
                    self.stats["connect_retries"] += 1
                    if failures >= self.retry.max_attempts:
                        break
                    self.retry.sleep(failures)
                    continue
                jobs_before = self.jobs_done
                try:
                    finished = self._session(channel)
                except (ChannelTimeout, ProtocolError, OSError):
                    finished = False
                finally:
                    channel.close()
                    self._channel = None
                if finished:
                    break
                if self.jobs_done > jobs_before:
                    # the session made progress before breaking: a live
                    # but lossy fleet, not a dead coordinator — keep the
                    # full retry budget for the next reconnect
                    failures = 0
                # the session ended without a shutdown: the connection
                # broke (or went silent past its read deadline) — back
                # off and reconnect, resuming the same fault stream
                failures += 1
                self.stats["reconnects"] += 1
                if failures >= self.retry.max_attempts:
                    break
                self.retry.sleep(failures)
        except InjectedCrash:
            pass
        return self.jobs_done

    def _dial(self) -> Union[LineChannel, FaultyChannel]:
        channel: Union[LineChannel, FaultyChannel] = connect(self.host, self.port)
        if self._injector is not None:
            channel = FaultyChannel(channel, self._injector)
        return channel

    def _session(self, channel: Union[LineChannel, FaultyChannel]) -> bool:
        """One connection's lease loop; True when shut down cleanly."""
        self._channel = channel
        self._heartbeat = _Heartbeat(channel, self.worker_id)
        try:
            return self._lease_loop(channel)
        finally:
            self._heartbeat.stop()

    def _lease_loop(self, channel: Union[LineChannel, FaultyChannel]) -> bool:
        channel.send_msg("hello", worker=self.worker_id)
        if channel.recv_msg(timeout=self.recv_timeout) is None:
            return False
        wait_attempt = 0
        timeout_strikes = 0
        while True:
            channel.send_msg("lease", worker=self.worker_id)
            try:
                msg = channel.recv_msg(timeout=self.recv_timeout)
            except ChannelTimeout:
                # a dropped grant (or a stalled coordinator): re-ask;
                # the undelivered job's lease expires and re-queues
                self.stats["read_timeouts"] += 1
                timeout_strikes += 1
                if timeout_strikes >= self.retry.max_attempts:
                    raise
                continue
            timeout_strikes = 0
            if msg is None or msg["type"] == "shutdown":
                return msg is not None
            if msg["type"] == "wait":
                wait_attempt += 1
                self.stats["wait_naps"] += 1
                self.retry.sleep(
                    wait_attempt, floor=float(msg.get("retry_after", 0.05))
                )
                continue
            if msg["type"] != "job":
                continue
            wait_attempt = 0
            self._run_job(msg)
            self.jobs_done += 1

    def _run_job(self, msg: dict) -> None:
        channel, heartbeat = self._channel, self._heartbeat
        assert channel is not None and heartbeat is not None
        address = msg["job_id"]
        attempt = msg.get("attempt")
        blob = msg.get("cache")
        if blob:
            entries = decode_entries(blob)
            self.cache.merge_entries(entries)
            self._shipped.update(entries)
        scenario = Scenario.from_dict(msg["scenario"])
        heartbeat.hold(address, float(msg.get("lease_timeout", 30.0)))
        error: Optional[str] = None
        result_dict = None
        exports_blob = None
        try:
            try:
                result = DesignStudy(scenario, cache=self.cache).run()
            except Exception as exc:  # non-domain crash: report, don't die
                error = repr(exc)
            else:
                result = result.with_provenance(
                    worker=self.worker_id, attempt=attempt
                )
                result_dict = result.to_dict()
                for record in result_dict["stages"]:
                    if record["name"] == "characterize" and "curves" in record["artifact"]:
                        # the coordinator re-derives them from its cache
                        record["artifact"] = {**record["artifact"], "curves": None}
                exports = self.cache.export_entries(exclude=self._shipped)
                if exports:
                    self._shipped.update(exports)
                    exports_blob = encode_entries(exports)
        finally:
            heartbeat.release()
        channel.send_msg(
            "result",
            worker=self.worker_id,
            job_id=address,
            attempt=attempt,
            result=result_dict,
            error=error,
            cache=exports_blob,
        )


def spawn_worker_process(
    host: str,
    port: int,
    *,
    worker_id: Optional[str] = None,
    chaos_seed: Optional[int] = None,
    chaos_profile: Optional[str] = None,
    chaos_index: int = 0,
    chaos_fleet: int = 1,
) -> subprocess.Popen:
    """Launch ``python -m repro worker --connect host:port`` as a child.

    The child gets ``PYTHONPATH`` pointing at this package's ``src``
    tree so the CLI resolves regardless of the caller's cwd.  Chaos
    flags put the child's connection under the named seeded fault
    storm (``chaos_index`` / ``chaos_fleet`` pin its role in the
    fleet's plan).
    """
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "repro", "worker", "--connect", f"{host}:{port}"]
    if worker_id:
        cmd += ["--id", worker_id]
    if chaos_profile is not None:
        cmd += [
            "--chaos-profile",
            chaos_profile,
            "--chaos-seed",
            str(chaos_seed if chaos_seed is not None else 0),
            "--chaos-index",
            str(chaos_index),
            "--chaos-fleet",
            str(chaos_fleet),
        ]
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


__all__ = ["FabricWorker", "spawn_worker_process"]
