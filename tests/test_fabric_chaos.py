"""Chaos matrix for the fabric resilience layer (PR 10).

The fabric's recovery machinery — leases, re-queueing, retry/backoff,
read deadlines, torn-log resume — is only trustworthy if it is
*exercised*, and only testable if the exercising is reproducible.
These tests drive real sockets and real threads under seeded fault
storms (:mod:`repro.fabric.resilience`) and assert two things at once:

1. **parity** — a sweep that survived drops, delays, duplicates,
   garbled lines, stalls and crashes merges bitwise identical to the
   serial run (rows and per-cell Welford statistics);
2. **determinism** — the same ``--chaos-seed`` reproduces the same
   fault sequence and the same requeue/retry accounting, run over run.
"""

import json
import socket
import threading
import time

import pytest

from repro.fabric import (
    CHAOS_PROFILES,
    ChannelTimeout,
    FabricWorker,
    FaultPlan,
    FaultyChannel,
    InjectedCrash,
    LineChannel,
    ProtocolError,
    ResultStore,
    RetryExhausted,
    RetryPolicy,
    ServiceClient,
    StudyService,
    SweepCoordinator,
    chaos_plan,
    connect,
    fleet_plans,
    run_fabric_sweep,
    tear_jsonl_tail,
)
from repro.fabric.resilience import DEFAULT_FAULT_TYPES, garble_line
from repro.pipeline import DwellCurveCache, get_scenario, run_sweep

#: Same cheap two-plant roster the fabric tests use.
def cheap_base(**overrides):
    settings = dict(
        apps=("motor-current-loop", "servo-rig"),
        wait_step=4,
        horizon=2.0,
    )
    settings.update(overrides)
    return get_scenario("multirate-cosim-analytic").derive(
        name="chaos-base", **settings
    )


AXES = {"loss_rate": [0.0, 0.02]}

#: Provenance keys the fabric adds on top of the serial row.
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


def assert_parity(fabric_result, serial_result):
    """Rows and per-cell Welford statistics identical apart from
    provenance and wall clock."""
    assert stripped(fabric_result.rows) == stripped(serial_result.rows)
    for fab_cell, ser_cell in zip(fabric_result.cells, serial_result.cells):
        fab_stats = dict(fab_cell.to_dict())
        ser_stats = dict(ser_cell.to_dict())
        fab_stats["metrics"] = {
            k: v for k, v in fab_stats["metrics"].items() if k != "duration"
        }
        ser_stats["metrics"] = {
            k: v for k, v in ser_stats["metrics"].items() if k != "duration"
        }
        assert fab_stats == ser_stats


def kept(results):
    """Kept results as JSON minus stage ``elapsed``, ``provenance`` and
    the characterize ``cache`` hit/miss block."""
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


def channel_pair():
    left_sock, right_sock = socket.socketpair()
    return LineChannel(left_sock), LineChannel(right_sock)


# -- retry policy ------------------------------------------------------


class TestRetryPolicy:
    def test_same_seed_same_delay_sequence(self):
        a = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.5, seed=7)
        b = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.5, seed=7)
        delays = [a.delay_for(k) for k in range(1, 6)]
        assert delays == [b.delay_for(k) for k in range(1, 6)]
        # exponential envelope with a bounded jitter on top
        for k, delay in enumerate(delays, start=1):
            raw = min(0.1 * 2.0 ** (k - 1), a.max_delay)
            assert raw <= delay <= raw * 1.5

    def test_different_seed_different_jitter(self):
        a = RetryPolicy(seed=1)
        b = RetryPolicy(seed=2)
        assert [a.delay_for(k) for k in range(1, 6)] != [
            b.delay_for(k) for k in range(1, 6)
        ]

    def test_floor_is_honoured_with_jitter_on_top(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.5, seed=0)
        delay = policy.delay_for(1, floor=2.0)
        assert 2.0 <= delay <= 3.0

    def test_call_retries_then_succeeds(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.01, seed=0)
        sleeps = []
        policy._sleep = sleeps.append
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionRefusedError("not up yet")
            return 42

        assert policy.call(flaky) == 42
        assert len(attempts) == 3 and len(sleeps) == 2

    def test_call_exhaustion_raises_chained(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, seed=0)
        policy._sleep = lambda _: None

        def dead():
            raise ConnectionRefusedError("never up")

        with pytest.raises(RetryExhausted) as err:
            policy.call(dead)
        assert isinstance(err.value.__cause__, ConnectionRefusedError)

    def test_call_deadline_cuts_attempts_short(self):
        policy = RetryPolicy(
            max_attempts=50, base_delay=10.0, jitter=0.0, deadline=0.001, seed=0
        )
        attempts = []

        def dead():
            attempts.append(1)
            raise OSError("down")

        with pytest.raises(RetryExhausted):
            policy.call(dead)
        # the first backoff would overshoot the deadline: one attempt only
        assert len(attempts) == 1

    def test_non_retryable_exception_propagates(self):
        policy = RetryPolicy(max_attempts=5, seed=0)
        policy._sleep = lambda _: None

        def broken():
            raise ValueError("a bug, not an outage")

        with pytest.raises(ValueError):
            policy.call(broken)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)


# -- fault plans and injector streams ----------------------------------


class TestFaultPlans:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_send=1.5)
        with pytest.raises(ValueError):
            FaultPlan(delay_max=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(crash_at_message=0)

    def test_quiet_plan(self):
        assert FaultPlan().quiet
        assert not FaultPlan(drop_send=0.1).quiet
        assert not FaultPlan(crash_at_message=3).quiet

    def test_injector_streams_reproduce(self):
        plan = FaultPlan(
            seed=42,
            drop_send=0.3,
            delay_send=0.5,
            duplicate_send=0.3,
            garble_send=0.2,
            drop_recv=0.3,
            delay_recv=0.5,
            duplicate_recv=0.3,
            delay_max=0.01,
        )
        a, b = plan.injector(), plan.injector()
        send_a = [a.send_fate() for _ in range(64)]
        recv_a = [a.recv_fate() for _ in range(64)]
        send_b = [b.send_fate() for _ in range(64)]
        recv_b = [b.recv_fate() for _ in range(64)]
        assert send_a == send_b and recv_a == recv_b
        assert a.events == b.events
        # the storm is real: something of every probabilistic kind fired
        assert a.events["drop_send"] > 0 and a.events["drop_recv"] > 0
        assert a.events["duplicate_send"] > 0 and a.events["garble_send"] > 0

    def test_send_and_recv_streams_are_independent(self):
        plan = FaultPlan(seed=9, drop_send=0.5, drop_recv=0.5)
        mixed = plan.injector()
        for _ in range(10):
            mixed.recv_fate()
        mixed_sends = [mixed.send_fate() for _ in range(20)]
        pure = plan.injector()
        assert mixed_sends == [pure.send_fate() for _ in range(20)]

    def test_chaos_plan_profiles(self):
        assert CHAOS_PROFILES == ("drop-delay", "dup-garble", "stall-crash")
        with pytest.raises(ValueError):
            chaos_plan("unknown-storm", 0)
        with pytest.raises(ValueError):
            chaos_plan("drop-delay", 0, worker_index=2, fleet_size=2)
        # stall-crash needs a survivor
        with pytest.raises(ValueError):
            chaos_plan("stall-crash", 0, worker_index=0, fleet_size=1)

    def test_fleet_plans_derive_per_worker_seeds(self):
        plans = fleet_plans("drop-delay", seed=5, fleet_size=3)
        assert len(plans) == 3
        assert len({plan.seed for plan in plans}) == 3
        assert plans == fleet_plans("drop-delay", seed=5, fleet_size=3)
        assert plans != fleet_plans("drop-delay", seed=6, fleet_size=3)

    def test_stall_crash_fleet_roles(self):
        plans = fleet_plans("stall-crash", seed=0, fleet_size=3, lease_timeout=1.5)
        assert plans[0].stall_at_message == 2 and plans[0].stall_for >= 2.4
        assert plans[-1].crash_at_message == 2
        assert plans[1].quiet


# -- read deadlines on the wire ----------------------------------------


class TestChannelDeadlines:
    def test_timeout_raises_typed_and_keeps_partial_line(self):
        left, right = channel_pair()
        left.send_raw(b'{"type": "hello"')  # no newline yet
        with pytest.raises(ChannelTimeout):
            right.recv_msg(timeout=0.1)
        left.send_raw(b', "n": 1}\n')  # finish the same line later
        assert right.recv_msg(timeout=1.0) == {"type": "hello", "n": 1}
        left.close()
        right.close()

    def test_timeout_with_nothing_buffered(self):
        left, right = channel_pair()
        start = time.monotonic()
        with pytest.raises(ChannelTimeout):
            right.recv_msg(timeout=0.1)
        assert time.monotonic() - start < 2.0
        left.close()
        right.close()

    def test_eof_mid_line_is_protocol_error(self):
        left, right = channel_pair()
        left.send_raw(b'{"type": "hello"')
        left.close()
        with pytest.raises(ProtocolError, match="mid-message"):
            right.recv_msg(timeout=1.0)
        right.close()

    def test_channel_timeout_is_oserror_but_not_plain(self):
        # one retry_on=(OSError,) class covers deadlines too, while
        # handlers that must distinguish can catch ChannelTimeout first
        assert issubclass(ChannelTimeout, TimeoutError)
        assert issubclass(ChannelTimeout, OSError)


# -- the faulty channel ------------------------------------------------


class TestFaultyChannel:
    def wrapped(self, plan):
        left, right = channel_pair()
        return FaultyChannel(left, plan.injector()), right

    def test_control_messages_pass_untouched(self):
        faulty, peer = self.wrapped(FaultPlan(seed=0, drop_send=1.0))
        faulty.send_msg("hello", worker="w")
        assert peer.recv_msg(timeout=1.0) == {"type": "hello", "worker": "w"}
        faulty.close()
        peer.close()

    def test_drop_send_swallows_data_messages(self):
        faulty, peer = self.wrapped(FaultPlan(seed=0, drop_send=1.0))
        faulty.send_msg("result", worker="w", job_id="a+0")
        with pytest.raises(ChannelTimeout):
            peer.recv_msg(timeout=0.15)
        assert faulty.injector.events["drop_send"] == 1
        faulty.close()
        peer.close()

    def test_duplicate_send_puts_line_twice(self):
        faulty, peer = self.wrapped(FaultPlan(seed=0, duplicate_send=1.0))
        faulty.send_msg("result", worker="w", job_id="a+0")
        first = peer.recv_msg(timeout=1.0)
        second = peer.recv_msg(timeout=1.0)
        assert first == second and first["type"] == "result"
        faulty.close()
        peer.close()

    def test_garble_send_breaks_only_that_line(self):
        faulty, peer = self.wrapped(FaultPlan(seed=0, garble_send=1.0))
        faulty.send_msg("result", worker="w", job_id="a+0")
        with pytest.raises(ProtocolError):
            peer.recv_msg(timeout=1.0)
        faulty.close()
        peer.close()

    def test_garble_line_never_parses_but_keeps_framing(self):
        data = garble_line(b'{"type": "result"}\n')
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        with pytest.raises(json.JSONDecodeError):
            json.loads(data.decode("utf-8", errors="replace"))

    def test_drop_recv_swallows_incoming(self):
        left, right = channel_pair()
        faulty = FaultyChannel(right, FaultPlan(seed=0, drop_recv=1.0).injector())
        left.send_msg("job", job_id="a+0")
        with pytest.raises(ChannelTimeout):
            faulty.recv_msg(timeout=0.15)
        assert faulty.injector.events["drop_recv"] == 1
        left.close()
        faulty.close()

    def test_duplicate_recv_replays_message(self):
        left, right = channel_pair()
        faulty = FaultyChannel(
            right, FaultPlan(seed=0, duplicate_recv=1.0).injector()
        )
        left.send_msg("job", job_id="a+0")
        first = faulty.recv_msg(timeout=1.0)
        second = faulty.recv_msg(timeout=1.0)  # replay, no wire read
        assert first == second and first["job_id"] == "a+0"
        left.close()
        faulty.close()

    def test_crash_hook_closes_socket_and_raises(self):
        faulty, peer = self.wrapped(FaultPlan(seed=0, crash_at_message=1))
        with pytest.raises(InjectedCrash):
            faulty.send_msg("result", worker="w", job_id="a+0")
        assert peer.recv_msg(timeout=1.0) is None  # peer sees a vanished process
        peer.close()

    def test_stall_hook_blocks_concurrent_control_sends(self):
        faulty, peer = self.wrapped(
            FaultPlan(seed=0, stall_at_message=1, stall_for=0.3)
        )
        stamps = {}

        def heartbeat():
            faulty.send_msg("heartbeat", worker="w")
            stamps["beat_done"] = time.monotonic()

        start = time.monotonic()
        beat = threading.Thread(target=heartbeat, daemon=True)

        def stall_send():
            faulty.send_msg("result", worker="w", job_id="a+0")

        stall = threading.Thread(target=stall_send, daemon=True)
        stall.start()
        time.sleep(0.05)  # let the stall take the lock first
        beat.start()
        stall.join(timeout=5.0)
        beat.join(timeout=5.0)
        # the heartbeat queued behind the stall: the lease went silent
        assert stamps["beat_done"] - start >= 0.25
        assert faulty.injector.events["stall"] == 1
        faulty.close()
        peer.close()

    def test_default_fault_types_are_data_plane_only(self):
        assert DEFAULT_FAULT_TYPES == ("job", "result")


# -- torn JSONL logs ---------------------------------------------------


class TestTornLogRecovery:
    def rows(self):
        return [
            {"address": "a+0", "ok": True},
            {"address": "a+1", "ok": True},
            {"address": "a+2", "ok": True},
        ]

    def test_tear_then_recover_prefix(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in self.rows()))
        removed = tear_jsonl_tail(str(path))
        assert removed > 0
        assert not path.read_text().endswith("\n")
        store = ResultStore()
        report = store.load_jsonl(str(path))
        assert (report.adopted, report.skipped, report.recovered_tail) == (2, 0, 1)
        assert "a+0" in store and "a+1" in store and "a+2" not in store

    def test_tear_keeps_at_least_one_byte(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(json.dumps(self.rows()[0]) + "\n")
        tear_jsonl_tail(str(path), keep_fraction=0.0)
        text = path.read_text()
        assert text and "\n" not in text  # a torn stub, not a deleted line

    def test_tear_empty_file_is_noop(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert tear_jsonl_tail(str(path)) == 0

    def test_tear_validation(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ValueError):
            tear_jsonl_tail(str(path), keep_fraction=1.0)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"address": "a+0"}\nnot json\n{"address": "a+1"}')
        with pytest.raises(ValueError, match="unreadable resume row"):
            ResultStore().load_jsonl(str(path))

    def test_complete_junk_final_line_still_raises(self, tmp_path):
        # a newline-terminated junk line is corruption, not a torn write
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"address": "a+0"}\nnot json\n')
        with pytest.raises(ValueError, match="unreadable resume row"):
            ResultStore().load_jsonl(str(path))


# -- the chaos storm matrix --------------------------------------------


def storm_sweep(profile, seed, **overrides):
    settings = dict(
        workers=1,
        lease_timeout=1.0,
        max_attempts=10,
        cache=DwellCurveCache(),
        worker_caches=[DwellCurveCache()],
        chaos_profile=profile,
        chaos_seed=seed,
        timeout=300.0,
    )
    settings.update(overrides)
    return run_fabric_sweep(
        cheap_base(), AXES, replications=2, seed0=3, **settings
    )


def recovery_ledger(result):
    """The deterministic slice of the fabric accounting: requeue events
    and per-worker retry counters (wait naps are timing-dependent and
    excluded)."""
    fabric = result.config["fabric"]
    worker_stats = {
        worker: {k: v for k, v in stats.items() if k != "wait_naps"}
        for worker, stats in fabric.get("worker_stats", {}).items()
    }
    return {
        "requeues": sorted(
            (event["address"], event["reason"]) for event in fabric["requeues"]
        ),
        "protocol_errors": fabric["protocol_errors"],
        "read_timeouts": fabric["read_timeouts"],
        "duplicates_ignored": fabric["duplicates_ignored"],
        "worker_stats": worker_stats,
    }


class TestChaosStorms:
    def test_drop_delay_storm_parity_and_reproducibility(self):
        serial = serial_baseline()
        first = storm_sweep("drop-delay", seed=101)
        assert_parity(first, serial)
        chaos = first.config["fabric"]["chaos"]
        assert chaos == {"seed": 101, "profile": "drop-delay"}
        # the same seed reproduces the same faults and the same recovery
        second = storm_sweep("drop-delay", seed=101)
        assert_parity(second, serial)
        assert recovery_ledger(first) == recovery_ledger(second)

    def test_dup_garble_storm_parity_and_reproducibility(self):
        serial = serial_baseline()
        first = storm_sweep("dup-garble", seed=7)
        assert_parity(first, serial)
        second = storm_sweep("dup-garble", seed=7)
        assert_parity(second, serial)
        assert recovery_ledger(first) == recovery_ledger(second)
        # the storm was real: something was duplicated or garbled, and
        # every one of those events left an accounting trace
        ledger = recovery_ledger(first)
        assert (
            ledger["duplicates_ignored"]
            + ledger["protocol_errors"]
            + len(ledger["requeues"])
            > 0
        )

    def test_stall_crash_storm_with_torn_tail_resume(self, tmp_path):
        serial = serial_baseline()
        jsonl = tmp_path / "storm.jsonl"
        result = storm_sweep(
            "stall-crash",
            seed=13,
            workers=2,
            lease_timeout=1.5,
            worker_caches=[DwellCurveCache(), DwellCurveCache()],
            jsonl_path=str(jsonl),
        )
        assert_parity(result, serial)
        fabric = result.config["fabric"]
        # exactly two recoveries: the stalled worker's lease expired and
        # the crashed worker's disconnect re-queued its job
        reasons = sorted(event["reason"] for event in fabric["requeues"])
        assert reasons == ["disconnect", "lease-expired"]

        # kill-the-writer artifact: tear the log tail, then resume
        assert tear_jsonl_tail(str(jsonl)) > 0
        resumed = run_fabric_sweep(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            workers=1,
            cache=DwellCurveCache(),
            jsonl_path=str(jsonl),
            resume_path=str(jsonl),
            timeout=300.0,
        )
        info = resumed.config["fabric"]
        assert info["recovered_tail"] == 1
        assert info["resumed"] == 3  # intact prefix adopted
        assert_parity(resumed, serial)
        # the recomputed torn row was appended: one line per address again
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert len({l["address"] for l in lines}) == 4

    def test_drop_delay_storm_keeps_results(self):
        # Seed 13 drops the worker's first result, the one whose cache
        # blob carried both curves; the worker counts them as shipped,
        # so the coordinator must measure them to rebuild kept results.
        serial = serial_baseline(keep_results=True)
        runs = []
        for _ in range(2):
            cache = DwellCurveCache()
            result = storm_sweep("drop-delay", seed=13, cache=cache, keep_results=True)
            assert_parity(result, serial)
            assert kept(result.results) == kept(serial.results)
            runs.append((recovery_ledger(result), cache.misses))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0

    def test_process_fleet_survives_dup_garble_storm(self):
        serial = serial_baseline()
        result = storm_sweep(
            "dup-garble",
            seed=3,
            workers=2,
            worker_mode="process",
            worker_caches=None,
            lease_timeout=5.0,
        )
        assert_parity(result, serial)
        assert result.config["fabric"]["chaos"] == {
            "seed": 3,
            "profile": "dup-garble",
        }

    def test_chaos_seed_requires_profile(self):
        with pytest.raises(ValueError, match="chaos_seed needs chaos_profile"):
            run_fabric_sweep(cheap_base(), AXES, workers=1, chaos_seed=1)
        with pytest.raises(ValueError, match="not both"):
            run_fabric_sweep(
                cheap_base(),
                AXES,
                workers=1,
                chaos_profile="drop-delay",
                fault_plans=[FaultPlan()],
            )


class TestLeaseReapUnderStall:
    def test_stalled_heartbeats_expire_lease_and_attempt_cap_lands_row(self):
        # satellite: a worker that goes silent mid-job (stall hook holds
        # the channel, heartbeats cannot renew) loses its lease; with
        # max_attempts=1 the coordinator lands the synthetic
        # failed_stage="worker" row and drops the stale late result
        plan = FaultPlan(seed=11, stall_at_message=1, stall_for=2.5, recv_timeout=1.0)
        result = run_fabric_sweep(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            workers=1,
            lease_timeout=1.0,
            max_attempts=1,
            cache=DwellCurveCache(),
            fault_plans=[plan],
            timeout=300.0,
        )
        fabric = result.config["fabric"]
        assert [event["reason"] for event in fabric["requeues"]] == ["lease-expired"]
        failed = [
            row for row in result.rows if row.get("failed_stage") == "worker"
        ]
        assert len(failed) == 1
        assert "lease-expired" in json.dumps(failed[0])
        # the stalled worker's late result arrived against the synthetic
        # row and was dropped as a duplicate — accounted, not merged
        assert fabric["duplicates_ignored"] == 1
        assert len(result.rows) == 4  # the sweep still completed


class TestConnectionIsolation:
    def test_garbled_peer_fails_only_its_connection(self):
        # satellite: one peer spraying garbage must not take down the
        # accept loop or any healthy worker
        coordinator = SweepCoordinator(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            lease_timeout=5.0,
            cache=DwellCurveCache(),
        )
        coordinator.start()
        try:
            evil = connect(coordinator.host, coordinator.port)
            evil.send_raw(b"\x00!garbled!\x00 not json\n")
            assert evil.recv_msg(timeout=5.0) is None  # kicked, typed, closed
            evil.close()

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
        result = coordinator.result()
        assert len(result.rows) == 4
        assert result.config["fabric"]["protocol_errors"] == 1

    def test_half_open_worker_is_reaped_by_read_deadline(self):
        coordinator = SweepCoordinator(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            lease_timeout=5.0,
            read_deadline=0.3,
            cache=DwellCurveCache(),
        )
        coordinator.start()
        try:
            silent = connect(coordinator.host, coordinator.port)
            silent.send_msg("hello", worker="zombie")
            assert silent.recv_msg(timeout=5.0)["type"] == "ok"
            # now go silent: the coordinator must hang up, not hang
            assert silent.recv_msg(timeout=5.0) is None
            silent.close()
        finally:
            coordinator.stop()
        assert coordinator.read_timeouts == 1

    def test_read_deadline_defaults_to_lease_multiple(self):
        coordinator = SweepCoordinator(
            cheap_base(), AXES, replications=1, seed0=0, lease_timeout=2.0
        )
        assert coordinator.read_deadline == 8.0
        with pytest.raises(ValueError):
            SweepCoordinator(
                cheap_base(), AXES, replications=1, seed0=0, read_deadline=0.0
            )


class TestWorkerConnectRetry:
    def test_dial_backs_off_until_coordinator_appears(self):
        # reserve a port, start the worker first, bring the coordinator
        # up late: the old behaviour failed instantly, the retry policy
        # rides out the gap
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        worker = FabricWorker(
            "127.0.0.1",
            port,
            worker_id="early-bird",
            cache=DwellCurveCache(),
            retry=RetryPolicy(max_attempts=30, base_delay=0.1, jitter=0.1, seed=4),
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        time.sleep(0.4)

        coordinator = SweepCoordinator(
            cheap_base(),
            AXES,
            replications=2,
            seed0=3,
            port=port,
            lease_timeout=5.0,
            cache=DwellCurveCache(),
        )
        coordinator.start()
        try:
            coordinator.wait(timeout=300.0)
        finally:
            coordinator.stop()
        thread.join(timeout=10.0)
        assert worker.jobs_done == 4
        assert worker.stats["connect_retries"] >= 1

    def test_dial_gives_up_after_attempt_budget(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        worker = FabricWorker(
            "127.0.0.1",
            port,
            worker_id="orphan",
            cache=DwellCurveCache(),
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, seed=0),
        )
        assert worker.run() == 0
        assert worker.stats["connect_retries"] == 2


class TestServiceResilience:
    def test_idle_half_open_client_releases_handler(self):
        service = StudyService(read_deadline=0.3)
        service.start()
        try:
            idle = connect(service.host, service.port)
            # send nothing: the service must hang up after its deadline
            assert idle.recv_msg(timeout=5.0) is None
            idle.close()
            # and keep serving real clients afterwards
            client = ServiceClient(service.host, service.port, timeout=30.0)
            snap = client.submit_scenario(cheap_base().derive(seed=1))
            artifact = client.wait_for(snap["job_id"], timeout=120.0)
            assert artifact["state"] == "done"
        finally:
            service.stop()

    def test_client_retries_until_service_appears(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        service = StudyService(port=port)
        starter = threading.Timer(0.4, service.start)
        starter.start()
        try:
            client = ServiceClient(
                "127.0.0.1",
                port,
                timeout=10.0,
                retry=RetryPolicy(max_attempts=30, base_delay=0.1, jitter=0.1, seed=2),
            )
            snap = client.submit_scenario(cheap_base().derive(seed=2))
            assert snap["state"] in ("queued", "running", "done")
        finally:
            starter.join()
            service.stop()

    def test_client_exhaustion_is_typed(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            "127.0.0.1",
            port,
            timeout=1.0,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, seed=0),
        )
        with pytest.raises(RetryExhausted):
            client.status("job-nope")


class TestChaosCliFlags:
    def test_chaos_flags_need_fabric(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--chaos-profile", "drop-delay"]) == 2
        assert "--chaos-profile" in capsys.readouterr().err

    def test_chaos_seed_needs_profile(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--fabric", "1", "--chaos-seed", "5"]) == 2
        assert "--chaos-seed needs --chaos-profile" in capsys.readouterr().err

    def test_worker_chaos_seed_needs_profile(self, capsys):
        from repro.cli import main

        code = main(
            ["worker", "--connect", "127.0.0.1:1", "--chaos-seed", "5"]
        )
        assert code == 2
        assert "--chaos-seed needs --chaos-profile" in capsys.readouterr().err
