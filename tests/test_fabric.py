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

    def test_lookup_counts_hits(self):
        store = ResultStore()
        store.put("a+0", {"ok": True})
        assert store.lookup("missing") is None and store.hits == 0
        assert store.lookup("a+0") == {"ok": True} and store.hits == 1

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
        for fab_cell, ser_cell in zip(fabric.cells, serial.cells):
            fab_stats = dict(fab_cell.to_dict())
            ser_stats = dict(ser_cell.to_dict())
            fab_stats["metrics"] = {
                k: v for k, v in fab_stats["metrics"].items() if k != "duration"
            }
            ser_stats["metrics"] = {
                k: v for k, v in ser_stats["metrics"].items() if k != "duration"
            }
            assert fab_stats == ser_stats
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
            die_after=1,
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
        # a fleet made only of immediately-dying workers must still
        # finish: every job exhausts its single attempt and lands as a
        # crash row instead of hanging the sweep
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
            die_after=0,
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
