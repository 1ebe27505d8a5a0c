"""Tests for the distributed sweep fabric and the study service.

The fabric's whole contract is that distribution is *invisible* in the
data: a sweep run on a fleet of workers over localhost TCP must equal
the serial run bit for bit (rows, per-cell Welford statistics), with
provenance (worker id, attempt, cache-hit flag) and wall-clock duration
as the only additions.  These tests drive real sockets, real threads,
an injected worker death, and the ``--resume`` round trip.
"""

import functools
import gc
import json
import socket
import threading
import time
import weakref

import pytest

from repro.fabric import (
    FabricWorker,
    FaultPlan,
    LineChannel,
    MESSAGE_TYPES,
    ProtocolError,
    ResultStore,
    ServiceClient,
    StudyService,
    SweepCoordinator,
    connect,
    make_msg,
    parse_endpoint,
    run_fabric_sweep,
    sweep_address,
)
from repro.pipeline import (
    DesignStudy,
    DwellCurveCache,
    Scenario,
    StudyResult,
    get_scenario,
    run_sweep,
)
from repro.pipeline.sweep import fixed_jobs

#: Same cheap two-plant roster the sweep tests use.
def cheap_base(**overrides):
    settings = dict(
        apps=("motor-current-loop", "servo-rig"),
        wait_step=4,
        horizon=2.0,
    )
    settings.update(overrides)
    return get_scenario("multirate-cosim-analytic").derive(
        name="fabric-base", **settings
    )


AXES = {"loss_rate": [0.0, 0.02]}

#: Provenance keys the fabric adds on top of the serial row; parity
#: compares everything else.  ``duration`` is wall clock on both sides.
FABRIC_ONLY = {"worker", "attempt", "cache_hit", "duration"}


def stripped(rows):
    return [{k: v for k, v in row.items() if k not in FABRIC_ONLY} for row in rows]


def stripped_cells(sweep):
    """Per-cell statistics without the wall-clock ``duration`` metric."""
    cells = [cell.to_dict() for cell in sweep.cells]
    for cell in cells:
        cell["metrics"].pop("duration", None)
    return cells


def serial_baseline(**kwargs):
    return run_sweep(
        cheap_base(),
        AXES,
        replications=2,
        seed0=3,
        max_workers=1,
        cache=DwellCurveCache(),
        **kwargs,
    )


class TestProtocol:
    def test_make_msg_validates_kind(self):
        assert make_msg("lease", worker="w") == {"type": "lease", "worker": "w"}
        with pytest.raises(ProtocolError):
            make_msg("leese")
        with pytest.raises(ProtocolError):
            make_msg("lease", type="job")

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7465") == ("127.0.0.1", 7465)
        for bad in ("localhost", ":80", "host:", "host:abc"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)

    def test_channel_round_trip_and_eof(self):
        left_sock, right_sock = socket.socketpair()
        # a Unix pair has no TCP_NODELAY; the channel must still wrap it
        assert left_sock.family == socket.AF_UNIX
        left, right = LineChannel(left_sock), LineChannel(right_sock)
        left.send_msg("hello", worker="w0", n=3)
        msg = right.recv_msg()
        assert msg == {"type": "hello", "worker": "w0", "n": 3}
        left.close()
        assert right.recv_msg() is None  # clean EOF, not an exception
        right.close()

    def test_channel_rejects_unknown_type_on_wire(self):
        left_sock, right_sock = socket.socketpair()
        right = LineChannel(right_sock)
        left_sock.sendall(b'{"type": "bogus"}\n')
        with pytest.raises(ProtocolError):
            right.recv_msg()
        left_sock.close()
        right.close()

    def test_message_types_cover_both_planes(self):
        for kind in ("lease", "job", "heartbeat", "result", "submit", "fetch"):
            assert kind in MESSAGE_TYPES


def nodelay(channel):
    return channel._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestNoDelay:
    """Every fabric TCP socket turns Nagle's algorithm off: each exchange
    is one short line answered by the peer, which would otherwise wait
    on the peer's delayed ACK."""

    @staticmethod
    def probe(server_cls):
        """``server_cls`` recording the option on each accepted socket."""
        accepted = []
        seen = threading.Event()

        class Probe(server_cls):
            def _serve_connection(self, channel):
                accepted.append(nodelay(channel))
                seen.set()
                super()._serve_connection(channel)

        return Probe, accepted, seen

    def test_coordinator_accepts_and_worker_dials_with_nodelay(self):
        Probe, accepted, seen = self.probe(SweepCoordinator)
        coordinator = Probe(cheap_base(), AXES, cache=DwellCurveCache())
        coordinator.start()
        try:
            worker = FabricWorker(
                coordinator.host, coordinator.port, cache=DwellCurveCache()
            )
            dialed = worker._dial()
            try:
                assert nodelay(dialed) != 0
                assert seen.wait(10.0)
            finally:
                dialed.close()
        finally:
            coordinator.stop()
        assert accepted and accepted[0] != 0

    def test_study_service_socket_has_nodelay(self):
        Probe, accepted, seen = self.probe(StudyService)
        service = Probe(pool_size=1, cache=DwellCurveCache())
        service.start()
        try:
            dialed = connect(service.host, service.port)
            try:
                assert nodelay(dialed) != 0
                assert seen.wait(10.0)
            finally:
                dialed.close()
        finally:
            service.stop()
        assert accepted and accepted[0] != 0


class TestResultStore:
    def test_one_row_per_address(self):
        store = ResultStore()
        assert store.put("a+0", {"ok": True})
        assert not store.put("a+0", {"ok": False})  # late duplicate dropped
        assert store.get("a+0") == {"ok": True}
        assert len(store) == 1 and "a+0" in store

    def test_load_jsonl_skips_worker_failures_and_foreign_rows(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        rows = [
            {"address": "a+0", "ok": True},
            {"address": "a+1", "ok": False, "failed_stage": "worker"},
            {"address": "foreign+9", "ok": True},
            {"ok": True},  # addressless (pre-fabric log): ignored
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        store = ResultStore()
        report = store.load_jsonl(str(path), wanted={"a+0", "a+1"})
        assert (report.adopted, report.skipped, report.recovered_tail) == (1, 1, 0)
        assert "a+0" in store and "a+1" not in store and "foreign+9" not in store

    def test_load_jsonl_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        path.write_text('{"address": "a+0"}\nnot json\n')
        with pytest.raises(ValueError, match="unreadable resume row"):
            ResultStore().load_jsonl(str(path))


class TestContentAddressing:
    def test_fingerprint_ignores_name_and_seed(self):
        base = cheap_base()
        assert base.fingerprint() == base.derive(name="renamed").fingerprint()
        assert base.fingerprint() == base.derive(seed=99).fingerprint()
        assert base.fingerprint() != base.derive(loss_rate=0.5).fingerprint()

    def test_content_address_binds_seed(self):
        base = cheap_base()
        assert base.content_address() != base.derive(seed=base.seed + 1).content_address()
        assert base.content_address() == f"{base.fingerprint()}+{base.seed}"

    def test_fixed_jobs_unique_addresses_in_dispatch_order(self):
        jobs = fixed_jobs(cheap_base(), AXES, replications=2, seed0=3)
        assert [j.index for j in jobs] == list(range(4))
        # replication-major: both cells at rep 0 before any rep 1
        assert [j.rep for j in jobs] == [0, 0, 1, 1]
        assert len({j.address for j in jobs}) == 4

    def test_sweep_address_stable_and_spec_sensitive(self):
        base = cheap_base()
        addr = sweep_address(base, AXES, 2, 3)
        assert addr == sweep_address(base.derive(name="renamed"), AXES, 2, 3)
        assert addr != sweep_address(base, AXES, 2, 4)
        assert addr != sweep_address(base, {"loss_rate": [0.0]}, 2, 3)


class TestFabricParity:
    def test_bitwise_identical_to_serial(self, tmp_path):
        serial = serial_baseline()
        jsonl = tmp_path / "fabric.jsonl"
        fabric = run_fabric_sweep(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            workers=3,
            cache=DwellCurveCache(),
            lease_timeout=30.0,
            jsonl_path=str(jsonl),
            timeout=300.0,
        )
        assert fabric.executor == "fabric" and fabric.mode == "fixed"
        # row values: exact equality, not approx — JSON floats round-trip
        assert stripped(fabric.rows) == stripped(serial.rows)
        # per-cell Welford statistics identical apart from wall clock
        assert stripped_cells(fabric) == stripped_cells(serial)
        # every row is attributed to a worker and carries its address
        assert all(row["worker"].startswith("local-") for row in fabric.rows)
        assert len({row["address"] for row in fabric.rows}) == len(fabric.rows)
        # the streamed JSONL holds the same rows, one line per address
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert {l["address"] for l in lines} == {r["address"] for r in fabric.rows}

    def test_single_worker_fleet_also_matches(self):
        serial = serial_baseline()
        fabric = run_fabric_sweep(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            workers=1,
            cache=DwellCurveCache(),
            timeout=300.0,
        )
        assert stripped(fabric.rows) == stripped(serial.rows)

    def test_repeated_cells_fold_like_serial(self):
        """Two cells with one scenario share their content addresses;
        each still gets its own replications (2 runs each), as in
        ``run_sweep``, not all four in the last cell of that name."""
        base = get_scenario("paper-table1")
        axes = {"deadline_scale": [1.0, 1.0]}
        serial = run_sweep(
            base, axes, replications=2, max_workers=1, cache=DwellCurveCache()
        )
        fabric = run_fabric_sweep(
            base,
            axes,
            replications=2,
            workers=1,
            cache=DwellCurveCache(),
            timeout=300.0,
        )
        assert [cell.runs for cell in serial.cells] == [2, 2]
        assert stripped_cells(fabric) == stripped_cells(serial)
        assert stripped(fabric.rows) == stripped(serial.rows)


#: One base per source kind whose kept results the fabric must rebuild:
#: measured plants, the measured servo rig, and a paper table (no curves).
KEPT_BASES = {
    "simulation": dict(
        scenario="sim-table1",
        apps=("active-suspension", "lateral-dynamics"),
        wait_step=8,
    ),
    "servo": dict(scenario="fig3-servo", wait_step=8),
    "paper": dict(scenario="paper-table1"),
}
KEPT_AXES = {"deadline_scale": [1.0, 1.5]}


def kept_base(kind):
    settings = dict(KEPT_BASES[kind])
    return get_scenario(settings.pop("scenario")).derive(name=f"kept-{kind}", **settings)


@functools.lru_cache(maxsize=None)
def kept_serial(kind):
    """Serial ``run_sweep(keep_results=True)`` and the cache it filled."""
    cache = DwellCurveCache()
    serial = run_sweep(
        kept_base(kind),
        KEPT_AXES,
        replications=1,
        seed0=3,
        max_workers=1,
        cache=cache,
        keep_results=True,
    )
    return serial, cache


def comparable(results):
    """Kept results as JSON, key order included, minus what may differ:
    stage ``elapsed``, ``provenance`` and the characterize ``cache``
    hit/miss block."""
    out = []
    for result in results:
        data = result.to_dict()
        del data["provenance"]
        for record in data["stages"]:
            del record["elapsed"]
            if record["name"] == "characterize":
                record["artifact"] = {
                    k: v for k, v in record["artifact"].items() if k != "cache"
                }
        out.append(json.dumps(data))
    return out


class WithholdingCache(DwellCurveCache):
    """A coordinator cache that never adopts one key, as if every message
    carrying it had been lost, so the coordinator must measure it."""

    def __init__(self, withheld):
        super().__init__()
        self.withheld = withheld

    def merge_entries(self, entries):
        return super().merge_entries(
            {key: value for key, value in entries.items() if key != self.withheld}
        )


class TestKeptResults:
    """With ``keep_results`` the fabric hands back the serial results.
    Workers send them without curves; the coordinator rebuilds them."""

    @pytest.mark.parametrize(
        "kind, coordinator_cache",
        [
            ("simulation", "warm"),
            ("simulation", "cold"),
            ("simulation", "withheld"),
            ("servo", "warm"),
            ("servo", "cold"),
            ("servo", "withheld"),
            ("paper", "cold"),
        ],
    )
    def test_kept_results_match_serial(self, monkeypatch, kind, coordinator_cache):
        serial, serial_cache = kept_serial(kind)
        if coordinator_cache == "warm":
            cache = DwellCurveCache()
            cache.merge_entries(serial_cache.export_entries())
        elif coordinator_cache == "cold":
            cache = DwellCurveCache()
        else:
            cache = WithholdingCache(min(serial_cache.keys_snapshot()))
        sent = []
        send_raw = LineChannel.send_raw

        def recording_send_raw(channel, data):
            sent.append(data)
            send_raw(channel, data)

        monkeypatch.setattr(LineChannel, "send_raw", recording_send_raw)
        fabric = run_fabric_sweep(
            kept_base(kind),
            KEPT_AXES,
            replications=1,
            seed0=3,
            workers=2,
            cache=cache,
            keep_results=True,
            timeout=300.0,
        )
        assert stripped(fabric.rows) == stripped(serial.rows)
        assert comparable(fabric.results) == comparable(serial.results)
        # only the withheld entry is measured on the coordinator; the
        # others arrived warm or through the workers' exports
        assert cache.misses == (coordinator_cache == "withheld")
        assert cache.keys_snapshot() == serial_cache.keys_snapshot()

        lines = [line for line in sent if json.loads(line)["type"] == "result"]
        assert len(lines) == len(serial.results)
        for line in lines:
            record = StudyResult.from_dict(json.loads(line)["result"]).stage(
                "characterize"
            )
            if kind == "paper":
                assert "curves" not in record.artifact
            else:
                assert record.artifact["curves"] is None
                assert b'"curves":null' in line


class _HungUpChannel:
    """A worker channel whose peer hangs up right after asking for a
    lease: every reply from then on raises ``ConnectionResetError``."""

    def __init__(self):
        self.inbox = [
            {"type": "hello", "worker": "gone"},
            {"type": "lease", "worker": "gone"},
        ]
        self.hung_up = False
        self.closed = False

    def recv_msg(self, timeout=None):
        if not self.inbox:
            return None
        msg = self.inbox.pop(0)
        self.hung_up = msg["type"] == "lease"
        return msg

    def send_msg(self, kind, **fields):
        if self.hung_up:
            raise ConnectionResetError("peer hung up")

    def close(self):
        self.closed = True


class TestHungUpWorker:
    def test_failed_reply_ends_the_connection_and_requeues(self):
        """The job reply to a worker that already hung up ends only that
        connection (nothing escapes into the server thread), and the
        lease granted just before it re-queues as a disconnect."""
        coordinator = SweepCoordinator(
            cheap_base(), axes=None, replications=1, seed0=0, cache=DwellCurveCache()
        )
        channel = _HungUpChannel()
        try:
            coordinator._serve_connection(channel)
        finally:
            coordinator.stop()
        assert channel.closed
        assert [r["reason"] for r in coordinator.requeues] == ["disconnect"]
        assert coordinator.requeues[0]["worker"] == "gone"


class _ScriptedChannel:
    """A worker channel that replays ``inbox`` and records every reply."""

    def __init__(self, inbox):
        self.inbox = list(inbox)
        self.sent = []
        self.closed = False

    def recv_msg(self, timeout=None):
        return self.inbox.pop(0) if self.inbox else None

    def send_msg(self, kind, **fields):
        self.sent.append(dict(fields, type=kind))

    def close(self):
        self.closed = True


class TestMalformedJobId:
    @pytest.mark.parametrize("kind", ["result", "heartbeat"])
    @pytest.mark.parametrize(
        "job_id", [["not", "a", "string"], {"a": 1}], ids=["list", "object"]
    )
    def test_non_string_job_id_is_a_counted_protocol_error(self, kind, job_id):
        """A job id that is neither a string nor absent ends only that
        connection, like a garbled line: counted, nothing escapes the
        handler, and the peer's lease re-queues as a disconnect."""
        coordinator = SweepCoordinator(
            cheap_base(), axes=None, replications=1, seed0=0, cache=DwellCurveCache()
        )
        channel = _ScriptedChannel(
            [
                {"type": "hello", "worker": "rogue"},
                {"type": "lease", "worker": "rogue"},
                {"type": kind, "worker": "rogue", "job_id": job_id},
            ]
        )
        try:
            coordinator._serve_connection(channel)
        finally:
            coordinator.stop()
        assert channel.closed
        assert coordinator.protocol_errors == 1
        assert [r["reason"] for r in coordinator.requeues] == ["disconnect"]

    def test_heartbeat_without_job_id_is_a_no_op(self):
        coordinator = SweepCoordinator(
            cheap_base(), axes=None, replications=1, seed0=0, cache=DwellCurveCache()
        )
        channel = _ScriptedChannel(
            [
                {"type": "hello", "worker": "idle"},
                {"type": "heartbeat", "worker": "idle"},
                {"type": "heartbeat", "worker": "idle", "job_id": None},
                {"type": "lease", "worker": "idle"},
            ]
        )
        try:
            coordinator._serve_connection(channel)
        finally:
            coordinator.stop()
        assert coordinator.protocol_errors == 0
        assert [msg["type"] for msg in channel.sent] == ["ok", "job"]


class TestMalformedAttempt:
    """A result's ``attempt`` is copied into its row, so anything but a
    positive int (or absent) fails the connection like a bad job id."""

    def serve(self, attempt):
        coordinator = SweepCoordinator(
            get_scenario("paper-table1"), replications=1, cache=DwellCurveCache()
        )
        (job,) = coordinator.jobs
        result = {
            "type": "result",
            "worker": "peer",
            "job_id": job.address,
            "attempt": attempt,
            "result": None,
            "error": "boom",
            "cache": None,
        }
        channel = _ScriptedChannel(
            [
                {"type": "hello", "worker": "peer"},
                {"type": "lease", "worker": "peer"},
                result,
            ]
        )
        try:
            coordinator._serve_connection(channel)
        finally:
            coordinator.stop()
        return coordinator, channel

    @pytest.mark.parametrize(
        "attempt", [[1], "1", True, 0], ids=["list", "string", "bool", "zero"]
    )
    def test_bad_attempt_is_a_counted_protocol_error(self, attempt):
        coordinator, channel = self.serve(attempt)
        assert channel.closed
        assert coordinator.protocol_errors == 1
        assert [r["reason"] for r in coordinator.requeues] == ["disconnect"]
        assert len(coordinator.store) == 0

    @pytest.mark.parametrize("attempt", [1, None], ids=["int", "absent"])
    def test_valid_attempt_lands(self, attempt):
        coordinator, _ = self.serve(attempt)
        assert coordinator.protocol_errors == 0 and coordinator.requeues == []
        (row,) = coordinator.result().rows
        assert (row["worker"], row["attempt"]) == ("peer", attempt)
        assert row["detail"] == "boom"


class _BeatRecorder:
    """A worker-side channel: replays ``inbox`` and records what the
    worker sends from either of its threads."""

    def __init__(self, inbox):
        self.inbox = list(inbox)
        self.sent = []
        self.changed = threading.Condition()

    def recv_msg(self, timeout=None):
        return self.inbox.pop(0) if self.inbox else None

    def send_msg(self, kind, **fields):
        with self.changed:
            self.sent.append(dict(fields, type=kind))
            self.changed.notify_all()

    def wait_for_heartbeat(self, job_id):
        with self.changed:
            assert self.changed.wait_for(
                lambda: {"type": "heartbeat", "worker": "w", "job_id": job_id}
                in self.sent,
                timeout=60.0,
            )


class TestOneHeartbeatThreadPerSession:
    def test_one_thread_beats_for_the_held_job_only(self, monkeypatch):
        """Three jobs in one session start one heartbeat thread; every
        heartbeat names the job held at the time, none goes out between
        jobs, and the thread ends with the session."""
        from repro.fabric import worker as worker_module

        done = DesignStudy(get_scenario("paper-table1"), cache=DwellCurveCache()).run()
        jobs = [f"job{i}" for i in range(3)]
        channel = _BeatRecorder(
            [{"type": "ok"}]
            + [
                {
                    "type": "job",
                    "job_id": job,
                    "attempt": 1,
                    "scenario": get_scenario("paper-table1").derive(name=job).to_dict(),
                    "lease_timeout": 0.03,
                }
                for job in jobs
            ]
            + [{"type": "shutdown"}]
        )

        class WaitsForItsHeartbeat:
            def __init__(self, scenario, cache):
                self.job = scenario.name

            def run(self):
                channel.wait_for_heartbeat(self.job)
                return done

        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(worker_module, "DesignStudy", WaitsForItsHeartbeat)
        worker = FabricWorker("127.0.0.1", 1, worker_id="w", cache=DwellCurveCache())
        assert worker._session(channel) is True
        assert started == ["w-heartbeat"]
        worker._heartbeat.thread.join(timeout=60.0)
        assert not worker._heartbeat.thread.is_alive()
        sent = channel.sent
        results = [i for i, msg in enumerate(sent) if msg["type"] == "result"]
        assert [sent[i]["job_id"] for i in results] == jobs
        for job, start_at, end_at in zip(jobs, [0] + results, results):
            beats = [m for m in sent[start_at:end_at] if m["type"] == "heartbeat"]
            assert beats and all(m["job_id"] == job for m in beats)
        assert all(m["type"] != "heartbeat" for m in sent[results[-1]:])


class TestLeaseRenewal:
    """A heartbeat extends a lease only on the connection that holds it,
    so one peer cannot keep another peer's lease alive."""

    @pytest.fixture
    def leased(self, monkeypatch):
        clock = {"now": 100.0}
        monkeypatch.setattr(
            "repro.fabric.coordinator.time.monotonic", lambda: clock["now"]
        )
        coordinator = SweepCoordinator(
            cheap_base(),
            axes=None,
            replications=2,
            seed0=0,
            lease_timeout=5.0,
            cache=DwellCurveCache(),
        )
        grants, channels = {}, {}
        for worker in ("A", "B"):
            channel = channels[worker] = _ScriptedChannel([])
            coordinator._grant(channel, worker)
            (job,) = channel.sent
            grants[worker] = job["job_id"]
        yield coordinator, clock, grants, channels
        coordinator.stop()

    def test_foreign_heartbeats_leave_the_deadline(self, leased):
        coordinator, clock, grants, channels = leased
        lease = coordinator._leases[grants["A"]]
        assert lease.deadline == 105.0
        clock["now"] = 104.0
        coordinator._renew(channels["B"], grants["A"])  # another worker's heartbeat
        coordinator._renew(channels["A"], grants["B"])  # an address A does not hold
        coordinator._renew(channels["A"], "no-such-job")
        coordinator._renew(_ScriptedChannel([]), grants["A"])  # a connection holding none
        assert lease.deadline == 105.0
        assert coordinator._leases[grants["B"]].deadline == 105.0
        clock["now"] = 105.5
        with coordinator._lock:
            coordinator._reap_locked()
        assert sorted(
            (r["worker"], r["reason"]) for r in coordinator.requeues
        ) == [("A", "lease-expired"), ("B", "lease-expired")]

    def test_holder_heartbeat_moves_the_deadline(self, leased):
        coordinator, clock, grants, channels = leased
        clock["now"] = 104.0
        coordinator._renew(channels["A"], grants["A"])
        assert coordinator._leases[grants["A"]].deadline == 109.0
        clock["now"] = 105.5
        with coordinator._lock:
            coordinator._reap_locked()
        assert [(r["worker"], r["reason"]) for r in coordinator.requeues] == [
            ("B", "lease-expired")
        ]
        assert grants["A"] in coordinator._leases


class TestMalformedResult:
    @pytest.mark.parametrize("payload", ["empty", "with-curves"])
    def test_bad_result_is_a_counted_protocol_error(self, payload):
        # a peer's result that does not decode, or that still carries
        # its curves, fails only that connection; its lease re-queues
        coordinator = SweepCoordinator(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            lease_timeout=5.0,
            cache=DwellCurveCache(),
            keep_results=True,
        )
        coordinator.start()
        try:
            rogue = connect(coordinator.host, coordinator.port)
            rogue.send_msg("hello", worker="rogue")
            assert rogue.recv_msg(timeout=5.0)["type"] == "ok"
            rogue.send_msg("lease", worker="rogue")
            job = rogue.recv_msg(timeout=5.0)
            assert job["type"] == "job"
            result = {}
            if payload == "with-curves":
                scenario = Scenario.from_dict(job["scenario"])
                result = DesignStudy(scenario, cache=DwellCurveCache()).run().to_dict()
            rogue.send_msg(
                "result",
                worker="rogue",
                job_id=job["job_id"],
                attempt=job["attempt"],
                result=result,
                error=None,
                cache=None,
            )
            assert rogue.recv_msg(timeout=5.0) is None  # dropped
            rogue.close()

            worker = FabricWorker(
                coordinator.host,
                coordinator.port,
                worker_id="healthy",
                cache=DwellCurveCache(),
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            coordinator.wait(timeout=300.0)
        finally:
            coordinator.stop()
        thread.join(timeout=10.0)
        fabric = coordinator.result()
        info = fabric.config["fabric"]
        assert info["protocol_errors"] == 1
        assert [event["reason"] for event in info["requeues"]] == ["disconnect"]
        serial = serial_baseline(keep_results=True)
        assert stripped(fabric.rows) == stripped(serial.rows)
        assert comparable(fabric.results) == comparable(serial.results)


def _requeued(coordinator, count, timeout=10.0):
    """The coordinator's requeue ledger once it holds ``count`` events
    (a dropped connection releases its leases on its handler thread)."""
    deadline = time.monotonic() + timeout
    while len(coordinator.requeues) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    return [(event["address"], event["worker"], event["reason"])
            for event in coordinator.requeues]


class TestConnectionIdentity:
    def test_a_second_worker_name_drops_only_that_connection(self):
        """A connection that said hello as ``a`` and then leases as
        ``b`` is a counted protocol error: it is dropped, its own lease
        re-queues, and the live ``b`` keeps the job it holds."""
        coordinator = SweepCoordinator(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            lease_timeout=30.0,
            cache=DwellCurveCache(),
        )
        coordinator.start()
        x = y = None
        try:
            x = connect(coordinator.host, coordinator.port)
            y = connect(coordinator.host, coordinator.port)
            leases = {}
            for channel, name in ((x, "a"), (y, "b")):
                channel.send_msg("hello", worker=name)
                assert channel.recv_msg(timeout=5.0)["type"] == "ok"
                channel.send_msg("lease", worker=name)
                job = channel.recv_msg(timeout=5.0)
                assert job["type"] == "job"
                leases[name] = job["job_id"]
            x.send_msg("lease", worker="b")
            assert x.recv_msg(timeout=5.0) is None  # dropped, no job
            assert _requeued(coordinator, 1) == [(leases["a"], "a", "disconnect")]
            assert coordinator.protocol_errors == 1
            y.close()
            assert _requeued(coordinator, 2)[1] == (leases["b"], "b", "disconnect")
        finally:
            for channel in (x, y):
                if channel is not None:
                    channel.close()
            coordinator.stop()

    def test_a_shared_name_keeps_each_connection_its_own_leases(self):
        """Two live connections that say hello under one name each hold
        their own lease: closing the first re-queues only its job, and
        the second keeps the job it is running."""
        coordinator = SweepCoordinator(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            lease_timeout=30.0,
            cache=DwellCurveCache(),
        )
        coordinator.start()
        x = y = None
        try:
            x = connect(coordinator.host, coordinator.port)
            y = connect(coordinator.host, coordinator.port)
            leased = []
            for channel in (x, y):
                channel.send_msg("hello", worker="same")
                assert channel.recv_msg(timeout=5.0)["type"] == "ok"
                channel.send_msg("lease", worker="same")
                job = channel.recv_msg(timeout=5.0)
                assert job["type"] == "job"
                leased.append(job["job_id"])
            x.close()
            assert _requeued(coordinator, 1) == [(leased[0], "same", "disconnect")]
            with coordinator._lock:  # a release re-queues all it holds at once
                assert len(coordinator.requeues) == 1
                assert leased[1] in coordinator._leases
            y.close()
            assert _requeued(coordinator, 2)[1] == (leased[1], "same", "disconnect")
        finally:
            for channel in (x, y):
                if channel is not None:
                    channel.close()
            coordinator.stop()
        assert coordinator.protocol_errors == 0

    def test_messages_without_a_name_speak_for_the_connection(self):
        coordinator = SweepCoordinator(
            cheap_base(), axes=None, replications=1, seed0=0, cache=DwellCurveCache()
        )
        channel = _ScriptedChannel(
            [
                {"type": "hello", "worker": "named"},
                {"type": "lease"},
                {"type": "hello", "worker": "named"},
            ]
        )
        try:
            coordinator._serve_connection(channel)
        finally:
            coordinator.stop()
        assert coordinator.protocol_errors == 0
        assert [msg["type"] for msg in channel.sent] == ["ok", "job", "ok"]
        assert [r["worker"] for r in coordinator.requeues] == ["named"]

    @staticmethod
    def serve(messages):
        """Replay ``messages`` on one connection to a one-job sweep; a
        ``job_id`` of ``None`` stands for that job's address."""
        coordinator = SweepCoordinator(
            get_scenario("paper-table1"), replications=1, cache=DwellCurveCache()
        )
        (job,) = coordinator.jobs
        inbox = [
            dict(msg, job_id=job.address) if "job_id" in msg else msg
            for msg in messages
        ]
        channel = _ScriptedChannel(inbox)
        try:
            coordinator._serve_connection(channel)
        finally:
            coordinator.stop()
        return coordinator, channel

    @pytest.mark.parametrize("kind", ["lease", "heartbeat", "result"])
    def test_any_message_under_another_name_drops_the_connection(self, kind):
        """After ``hello`` as ``own``, a lease, heartbeat or result under
        ``other`` is a counted protocol error: the connection drops
        before it serves another message, its own lease re-queues, and
        nothing lands for ``other``."""
        message = {"type": kind, "worker": "other"}
        if kind != "lease":
            message["job_id"] = None
        if kind == "result":
            message.update(attempt=1, result=None, error="boom", cache=None)
        coordinator, channel = self.serve(
            [
                {"type": "hello", "worker": "own"},
                {"type": "lease", "worker": "own"},
                message,
                {"type": "lease", "worker": "own"},
            ]
        )
        assert channel.closed
        assert coordinator.protocol_errors == 1
        assert [msg["type"] for msg in channel.sent] == ["ok", "job"]
        assert [(r["worker"], r["reason"]) for r in coordinator.requeues] == [
            ("own", "disconnect")
        ]
        assert len(coordinator.store) == 0

    def test_a_first_lease_fixes_the_name(self):
        """A connection that leases before any hello is named by that
        lease; a later hello under another name is refused like any
        other second name."""
        coordinator, channel = self.serve(
            [
                {"type": "lease", "worker": "early"},
                {"type": "hello", "worker": "late"},
            ]
        )
        assert coordinator.protocol_errors == 1
        assert [msg["type"] for msg in channel.sent] == ["job"]
        assert [(r["worker"], r["reason"]) for r in coordinator.requeues] == [
            ("early", "disconnect")
        ]

    def test_own_name_result_lands_under_it(self):
        """Honest workers repeat their own name on every message, and
        their rows land under it exactly as before."""
        coordinator, channel = self.serve(
            [
                {"type": "hello", "worker": "own"},
                {"type": "lease", "worker": "own"},
                {"type": "heartbeat", "worker": "own", "job_id": None},
                {
                    "type": "result",
                    "worker": "own",
                    "job_id": None,
                    "attempt": 1,
                    "result": None,
                    "error": "boom",
                    "cache": None,
                },
            ]
        )
        assert coordinator.protocol_errors == 0 and coordinator.requeues == []
        assert [msg["type"] for msg in channel.sent] == ["ok", "job"]
        (row,) = coordinator.result().rows
        assert (row["worker"], row["attempt"]) == ("own", 1)


def freed(ref, timeout=10.0):
    """Whether ``ref`` dies within ``timeout`` (a handler thread may still
    be unwinding from its peer's hangup)."""
    deadline = time.monotonic() + timeout
    while ref() is not None and time.monotonic() < deadline:
        time.sleep(0.01)
    return ref() is None


class TestFreedWithoutCyclicGc:
    """A finished coordinator (with its kept results and store) and a
    stopped study service are freed by reference counting alone."""

    def test_coordinator_and_service_are_unreachable(self, monkeypatch):
        refs = []
        start = SweepCoordinator.start

        def recording_start(coordinator):
            refs.append(weakref.ref(coordinator))
            start(coordinator)

        monkeypatch.setattr(SweepCoordinator, "start", recording_start)
        gc.disable()
        try:
            run_fabric_sweep(
                cheap_base(),
                AXES,
                replications=1,
                seed0=3,
                workers=2,
                cache=DwellCurveCache(),
                keep_results=True,
                timeout=300.0,
            )
            service = StudyService(pool_size=1, cache=DwellCurveCache())
            service.start()
            with pytest.raises(RuntimeError, match="unknown job id"):
                ServiceClient(service.host, service.port).status("job-nope")
            service.stop()
            refs.append(weakref.ref(service))
            del service
            assert len(refs) == 2
            assert [freed(ref) for ref in refs] == [True, True]
        finally:
            gc.enable()


class TestLeaseAndResume:
    def test_killed_worker_requeues_then_resume_completes(self, tmp_path):
        jsonl = tmp_path / "sweep.jsonl"
        # Run 1: a worker that dies mid-fleet, attempt budget of one, so
        # its leased job lands as the synthetic failed_stage="worker" row.
        coordinator = SweepCoordinator(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            lease_timeout=5.0,
            max_attempts=1,
            cache=DwellCurveCache(),
            jsonl_path=str(jsonl),
        )
        coordinator.start()
        dier = FabricWorker(
            coordinator.host,
            coordinator.port,
            worker_id="dier",
            cache=DwellCurveCache(),
            fault_plan=FaultPlan(crash_at_message=2),
        )
        steady = FabricWorker(
            coordinator.host,
            coordinator.port,
            worker_id="steady",
            cache=DwellCurveCache(),
        )
        threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in (dier, steady)
        ]
        # The dier runs alone until it dies holding its second lease.
        # Started together, the steady worker could take every other
        # job first, and then nothing would die mid-lease.
        threads[0].start()
        threads[0].join(timeout=60.0)
        threads[1].start()
        coordinator.wait(timeout=300.0)
        coordinator.stop()
        for thread in threads:
            thread.join(timeout=10.0)
        first = coordinator.result()

        worker_failures = [
            row for row in first.rows if row.get("failed_stage") == "worker"
        ]
        assert len(first.rows) == 4
        assert len(worker_failures) == 1
        assert coordinator.requeues and coordinator.requeues[0]["worker"] == "dier"
        assert first.config["fabric"]["requeues"] == coordinator.requeues

        # Run 2: resume from the JSONL — ok rows adopted as cache hits,
        # the worker-failure retried, zero duplicate addresses.
        resumed = run_fabric_sweep(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            workers=2,
            cache=DwellCurveCache(),
            jsonl_path=str(jsonl),
            resume_path=str(jsonl),
            timeout=300.0,
        )
        info = resumed.config["fabric"]
        assert info["resumed"] == 3 and info["retried_worker_failures"] == 1
        assert all(row.get("failed_stage") != "worker" for row in resumed.rows)
        adopted = [row for row in resumed.rows if row.get("cache_hit")]
        assert len(adopted) == 3

        # full parity with serial once the retry fills the hole
        serial = serial_baseline()
        assert stripped(resumed.rows) == stripped(serial.rows)

        # the appended JSONL never duplicates a finished address
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        finished = [l["address"] for l in lines if l.get("failed_stage") != "worker"]
        assert len(finished) == len(set(finished)) == 4

    def test_attempt_cap_synthesizes_worker_row(self):
        # a fleet made only of workers that die holding their first
        # lease must still finish: every job exhausts its single attempt
        # and lands as a crash row instead of hanging the sweep
        coordinator = SweepCoordinator(
            cheap_base(),
            axes=None,
            replications=1,
            seed0=0,
            lease_timeout=5.0,
            max_attempts=1,
            cache=DwellCurveCache(),
        )
        coordinator.start()
        dier = FabricWorker(
            coordinator.host,
            coordinator.port,
            worker_id="dier",
            cache=DwellCurveCache(),
            fault_plan=FaultPlan(crash_at_message=1),
        )
        thread = threading.Thread(target=dier.run, daemon=True)
        thread.start()
        coordinator.wait(timeout=60.0)
        coordinator.stop()
        thread.join(timeout=10.0)
        result = coordinator.result()
        assert len(result.rows) == 1
        assert result.rows[0]["failed_stage"] == "worker"
        assert result.rows[0]["ok"] is False
        assert "disconnect" in result.rows[0]["detail"]


class TestFleetCacheSharing:
    def test_measurements_travel_between_workers(self):
        # Two workers with deliberately separate caches: whatever worker
        # A measures must reach worker B through the coordinator (job
        # grants ship the fleet cache delta), not through shared memory.
        fleet_cache = DwellCurveCache()
        worker_caches = [DwellCurveCache(), DwellCurveCache()]
        run_fabric_sweep(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            workers=2,
            cache=fleet_cache,
            worker_caches=worker_caches,
            timeout=300.0,
        )
        # the coordinator folded worker exports into the fleet cache
        assert len(fleet_cache) > 0
        fleet_keys = fleet_cache.keys_snapshot()
        # every worker that ran jobs ended up holding fleet keys; with 4
        # jobs over 2 workers and one shared measurement set, at least
        # one worker's cache was seeded over the wire (hits > misses of
        # a cold run) — structurally: all worker keys are fleet keys
        for cache in worker_caches:
            assert cache.keys_snapshot() <= fleet_keys

    def test_prewarmed_coordinator_cache_reaches_workers(self):
        # measure once locally, then hand the warm cache to the fabric:
        # workers must receive the entries with their first grant
        fleet_cache = DwellCurveCache()
        serial = run_sweep(
            cheap_base(),
            AXES,
            replications=1,
            seed0=3,
            max_workers=1,
            cache=fleet_cache,
        )
        assert len(serial.rows) == 2 and len(fleet_cache) > 0
        warm_keys = fleet_cache.keys_snapshot()
        worker_cache = DwellCurveCache()
        run_fabric_sweep(
            cheap_base(),
            AXES,
            replications=1,
            seed0=3,
            workers=1,
            cache=fleet_cache,
            worker_caches=[worker_cache],
            timeout=300.0,
        )
        assert warm_keys <= worker_cache.keys_snapshot()


class TestStudyService:
    def test_submit_poll_fetch_and_content_address_dedup(self):
        service = StudyService(pool_size=2, cache=DwellCurveCache())
        service.start()
        try:
            client = ServiceClient(service.host, service.port)
            scenario = cheap_base(apps=("motor-current-loop",))
            submitted = client.submit_scenario(scenario)
            assert submitted["state"] in ("queued", "running", "done")
            fetched = client.wait_for(submitted["job_id"], timeout=300.0)
            assert fetched["state"] == "done"
            result = StudyResult.from_dict(fetched["artifact"])
            assert result.ok and result.provenance.get("service") is True

            # identical scenario under another name: same job, cache hit
            again = client.submit_scenario(scenario.derive(name="renamed"))
            assert again["job_id"] == submitted["job_id"]
            assert again["cache_hit"] is True

            # a different seed is different work
            other = client.submit_scenario(scenario.derive(seed=11))
            assert other["job_id"] != submitted["job_id"]
            client.wait_for(other["job_id"], timeout=300.0)
        finally:
            service.stop()

    def test_submit_sweep_spec(self):
        service = StudyService(pool_size=1, cache=DwellCurveCache())
        service.start()
        try:
            client = ServiceClient(service.host, service.port)
            spec = {
                "base": cheap_base(apps=("motor-current-loop",)).to_dict(),
                "axes": {"loss_rate": [0.0]},
                "replications": 1,
                "seed0": 0,
            }
            submitted = client.submit_sweep(spec)
            assert submitted["job_kind"] == "sweep"
            assert submitted["address"].startswith("sweep-")
            fetched = client.wait_for(submitted["job_id"], timeout=300.0)
            assert fetched["state"] == "done"
            assert fetched["artifact"]["mode"] == "fixed"
            assert len(fetched["artifact"]["runs"]) == 1
        finally:
            service.stop()

    def test_unknown_job_and_bad_submit_are_clean_errors(self):
        service = StudyService(pool_size=1, cache=DwellCurveCache())
        service.start()
        try:
            client = ServiceClient(service.host, service.port)
            with pytest.raises(RuntimeError, match="unknown job id"):
                client.status("job-nope")
            with pytest.raises(RuntimeError, match="submit needs one of"):
                client._call("submit")
        finally:
            service.stop()

    def test_job_states_only_move_forward(self):
        from repro.fabric import JOB_STATES, JobRecord

        record = JobRecord("job-x", "addr+0", "study")
        assert record.state == "queued" == JOB_STATES[0]
        record.advance("running")
        record.advance("done")
        with pytest.raises(ValueError):
            record.advance("running")  # no going back
        with pytest.raises(ValueError):
            record.advance("bogus")


class TestCliFabricFlags:
    def test_adaptive_flags_rejected_with_fabric(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--fabric",
                "2",
                "--ci-target",
                "0.1",
                "--max-replications",
                "8",
            ]
        )
        assert code == 2
        assert "adaptive stopping" in capsys.readouterr().err

    def test_resume_requires_fabric_and_output(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--resume"]) == 2
        assert "--resume needs --fabric" in capsys.readouterr().err
        assert main(["sweep", "--fabric", "1", "--resume"]) == 2
        assert "--resume needs --output" in capsys.readouterr().err
