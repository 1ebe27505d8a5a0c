"""Distributed sweep fabric and content-addressed study service.

``repro.fabric`` moves the pipeline's work across processes and hosts
without changing a single bit of it:

* :mod:`~repro.fabric.protocol` — the line-JSON wire format both
  planes share (:data:`~repro.fabric.protocol.MESSAGE_TYPES`), with
  per-read deadlines (:class:`~repro.fabric.protocol.ChannelTimeout`)
  and a typed error for garbage on the wire
  (:class:`~repro.fabric.protocol.ProtocolError`);
* :mod:`~repro.fabric.store` — the content-addressed result store
  (one row per ``fingerprint+seed`` address) behind dedup and resume,
  including torn-tail recovery of a killed writer's JSONL;
* :mod:`~repro.fabric.coordinator` — sweep decomposition, leases with
  heartbeat/timeout re-queueing, deterministic merge
  (:func:`~repro.fabric.coordinator.run_fabric_sweep` is the drop-in
  distributed twin of :func:`~repro.pipeline.sweep.run_sweep`);
* :mod:`~repro.fabric.worker` — the lease-run-report loop
  (``repro worker``), including fleet-wide dwell-cache sharing and
  retry-backed dialing/reconnection;
* :mod:`~repro.fabric.service` — the long-lived study endpoint
  (``repro serve``) with submit/status/fetch and a scenario-hash
  result cache;
* :mod:`~repro.fabric.resilience` — the chaos layer: one seeded
  :class:`~repro.fabric.resilience.RetryPolicy` for every backoff in
  the fabric, and deterministic fault injection
  (:class:`~repro.fabric.resilience.FaultPlan` /
  :class:`~repro.fabric.resilience.FaultyChannel`, named storms via
  :func:`~repro.fabric.resilience.chaos_plan`) that drops, delays,
  duplicates, garbles, stalls and crashes on a fixed seed — the chaos
  tests prove the merged sweep stays bitwise identical to serial.

Everything here may legitimately read wall-clock time (leases,
timeouts, backoff sleeps, job timestamps) — the determinism lint
(QA002) exempts this package for exactly that reason; simulation code
still may not.
"""

from repro.fabric.coordinator import (
    FabricTimeout,
    SweepCoordinator,
    run_fabric_sweep,
)
from repro.fabric.protocol import (
    MESSAGE_TYPES,
    ChannelTimeout,
    LineChannel,
    ProtocolError,
    connect,
    make_msg,
    parse_endpoint,
)
from repro.fabric.resilience import (
    CHAOS_PROFILES,
    FaultInjector,
    FaultPlan,
    FaultyChannel,
    InjectedCrash,
    RetryExhausted,
    RetryPolicy,
    chaos_plan,
    fleet_plans,
    tear_jsonl_tail,
)
from repro.fabric.service import (
    JOB_STATES,
    JobRecord,
    ServiceClient,
    StudyService,
    sweep_address,
)
from repro.fabric.store import ResultStore, ResumeReport
from repro.fabric.worker import FabricWorker, spawn_worker_process

__all__ = [
    "CHAOS_PROFILES",
    "ChannelTimeout",
    "FabricTimeout",
    "FabricWorker",
    "FaultInjector",
    "FaultPlan",
    "FaultyChannel",
    "InjectedCrash",
    "JOB_STATES",
    "JobRecord",
    "LineChannel",
    "MESSAGE_TYPES",
    "ProtocolError",
    "ResultStore",
    "ResumeReport",
    "RetryExhausted",
    "RetryPolicy",
    "ServiceClient",
    "StudyService",
    "SweepCoordinator",
    "chaos_plan",
    "connect",
    "fleet_plans",
    "make_msg",
    "parse_endpoint",
    "run_fabric_sweep",
    "spawn_worker_process",
    "sweep_address",
    "tear_jsonl_tail",
]
