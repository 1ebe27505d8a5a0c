"""Lockstep co-simulation: studies advanced together equal their solo runs.

A sweep's pool worker co-simulates its chunk's compatible studies
together (``repro.sim.cosim.run_together``): one barrier sequence per
study, but each application's control product and plant sweep run once
for the whole group as batched matmuls.  The bar: every study's trace
(times, norms, states, delays, response times), ``jitter_violations``,
lost/clamped counts and ``statistics()`` bitwise equal to its own run;
incompatible studies run alone; sweep rows stay bitwise equal across
serial, thread and process executors, crashes included.
"""

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cosim_batch_networks import NETWORKS, _flexray, _statistics
from test_cosim_event import make_app

from repro.control.disturbance import OneShotDisturbance, SporadicDisturbance
from repro.control.plants import (
    active_suspension,
    cruise_control,
    dc_motor_speed,
    motor_current_loop,
    servo_rig,
    throttle_by_wire,
)
from repro.experiments import traces_bitwise_equal
from repro.flexray import FrameSpec, paper_bus_config
from repro.pipeline import DesignStudy, DwellCurveCache, get_scenario, run_sweep
from repro.pipeline import runner, stages
from repro.pipeline.runner import run_chunk
from repro.sim import CoSimulator
from repro.sim import batch, stepper
from repro.sim.cosim import lockstep_groups, run_together
from repro.sim.network import AnalyticNetwork, CanBusNetwork, IIDLoss, LossyNetwork
from repro.sim.stepper import stacked_safe

PLANTS = {
    "servo": servo_rig,
    "motor": dc_motor_speed,
    "throttle": throttle_by_wire,
    "cruise": cruise_control,
    "suspension": active_suspension,
}

#: Whether the start-up probe licenses the batched products for every
#: plant shape used here; where it does not, nothing groups.
PROBE_OK = all(
    stacked_safe(plant().model.n_states, plant().model.b.shape[1])
    for plant in PLANTS.values()
)
needs_probe = pytest.mark.skipif(
    not PROBE_OK, reason="the stacked_safe probe rejects this platform"
)


@functools.lru_cache(maxsize=None)
def _designed(plant):
    """One controller design per plant, shared by every study's roster
    (a lockstep group shares its gains)."""
    return make_app(plant, PLANTS[plant](), slot=0, frame_id=1, deadline=5.0)


#: network kind -> factory taking ``(seed, loss_rate)``
KINDS = {
    "analytic": lambda s, r: AnalyticNetwork(),
    "flexray": lambda s, r: _flexray(loss_rate=r, loss_seed=s),
    "can": lambda s, r: CanBusNetwork(),
    "lossy-analytic": lambda s, r: LossyNetwork(
        inner=AnalyticNetwork(), loss=IIDLoss(rate=r, seed=s)
    ),
    "lossy-can": lambda s, r: LossyNetwork(
        inner=CanBusNetwork(), loss=IIDLoss(rate=r, seed=s)
    ),
    **{kind: (lambda s, r, build=build: build(s)) for kind, build in NETWORKS.items()},
}


def _copy(plant, index):
    """The shared design of ``plant`` as the roster's ``index``-th
    application: a repeated plant's copy gets a name of its own."""
    app = _designed(plant)
    name = f"{plant}-{index}"
    return dataclasses.replace(app, app=dataclasses.replace(app.app, name=name))


def _study(roster, seed):
    """One study of a lockstep group: the shared designs on its own
    slots, frames, deadlines and disturbances, over its own network,
    with its own delay equalization.  Built fresh on every call."""
    rng = random.Random(seed)
    slots = rng.sample(range(paper_bus_config().static_slots), 3)
    fleet = []
    for index, plant in enumerate(roster):
        if rng.random() < 0.5:
            disturbances = OneShotDisturbance(time=rng.uniform(0.0, 1.0))
        else:
            disturbances = SporadicDisturbance(
                min_inter_arrival=rng.uniform(0.5, 1.5),
                mean_extra_gap=rng.uniform(0.0, 1.0),
                seed=rng.randrange(1000),
            )
        app = _copy(plant, index)
        fleet.append(
            dataclasses.replace(
                app,
                slot=rng.choice(slots),
                frame=FrameSpec(frame_id=index + 1, sender=app.name),
                deadline=rng.uniform(2.0, 6.0),
                disturbances=disturbances,
            )
        )
    kind = rng.choice(sorted(KINDS))
    network = KINDS[kind](rng.randrange(1000), rng.choice((0.02, 0.05, 0.2)))
    return CoSimulator(
        fleet,
        network,
        equalize_delays=rng.random() < 0.5,
        tt_allowed=rng.random() < 0.9,
    )


def _outcome(simulator, trace):
    network = simulator.network
    return (
        simulator.jitter_violations,
        getattr(network, "lost", None),
        getattr(network, "clamped", None),
        _statistics(network),
        getattr(network, "calls", None),
        simulator.last_kernel,
        [(name, trace[name].states) for name in trace.apps],
    )


@needs_probe
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    height=st.integers(2, 9),
    roster=st.lists(st.sampled_from(sorted(PLANTS)), min_size=1, max_size=4),
    horizon=st.floats(0.6, 2.0),
)
def test_lockstep_runs_equal_solo_runs(seed, height, roster, horizon):
    seeds = [seed + k for k in range(height)]
    solos = []
    for s in seeds:
        simulator = _study(roster, s)
        solos.append((simulator, simulator.run(horizon)))
    group = [_study(roster, s) for s in seeds]
    assert lockstep_groups(group, [horizon] * height) == [list(range(height))]
    traces = run_together(group, [horizon] * height)
    for (solo, solo_trace), simulator, trace in zip(solos, group, traces):
        assert traces_bitwise_equal(solo_trace, trace)
        assert _outcome(solo, solo_trace) == _outcome(simulator, trace)


@needs_probe
@pytest.mark.parametrize("roster", [["servo", "servo"], ["cruise", "servo", "cruise"]])
def test_rosters_repeating_a_plant_run_in_lockstep(roster):
    """Every copy of a repeated plant is an application with its own row
    stack, so such rosters group like any other, bitwise."""
    seeds = range(40, 44)
    solos = []
    for seed in seeds:
        simulator = _study(roster, seed)
        solos.append((simulator, simulator.run(1.2)))
    group = [_study(roster, seed) for seed in seeds]
    assert lockstep_groups(group, [1.2] * len(group)) == [list(range(len(group)))]
    traces = run_together(group, [1.2] * len(group))
    for (solo, solo_trace), simulator, trace in zip(solos, group, traces):
        assert traces_bitwise_equal(solo_trace, trace)
        assert _outcome(solo, solo_trace) == _outcome(simulator, trace)


def test_probe_forced_false_runs_every_study_alone(monkeypatch):
    monkeypatch.setattr(batch, "stacked_safe", lambda n_states, n_inputs: False)
    roster = ["servo", "cruise"]
    group = [_study(roster, s) for s in range(3)]
    assert lockstep_groups(group, [1.0] * 3) == [[0], [1], [2]]
    with pytest.raises(ValueError, match="one shared tick grid"):
        run_together(group, [1.0] * 3)
    with pytest.raises(ValueError, match="one network each"):
        run_together([group[0], group[0]], [1.0] * 2)
    # a chunk then runs each study through its own kernel, bitwise
    scenarios = [_fig5(seed=s) for s in range(3)]
    expected = _solo(scenarios)
    chunk = run_chunk(scenarios, cache=_CACHE)
    assert [_comparable(r) for r in chunk] == expected


@needs_probe
def test_incompatible_members_run_alone():
    roster = ["servo", "motor", "suspension"]
    compatible = [_study(roster, s) for s in range(3)]
    multirate = CoSimulator(
        [
            make_app("current", motor_current_loop(), 0, 1, 0.5, period=0.002),
            _designed("servo"),
        ],
        AnalyticNetwork(),
    )
    event = _study(roster, 3)
    event.kernel = "event"
    longer = _study(roster, 4)
    other_design = _study(["servo", "motor", "servo"], 5)
    mixed = [
        compatible[0], multirate, compatible[1], event, longer, other_design,
        compatible[2],
    ]
    horizons = [1.0, 1.0, 1.0, 1.0, 1.5, 1.0, 1.0]
    assert lockstep_groups(mixed, horizons) == [[0, 2, 6], [1], [3], [4], [5]]
    together = run_together([mixed[i] for i in (0, 2, 6)], [1.0] * 3)
    for seed, trace in zip((0, 1, 2), together):
        assert traces_bitwise_equal(_study(roster, seed).run(1.0), trace)


# -- the pipeline: chunks, sweeps, crashes -------------------------------

#: A fig5 roster small enough for tier-1: three plants, short horizon,
#: coarse dwell stride, sporadic arrivals.
_CACHE = DwellCurveCache()


def _fig5(**overrides):
    settings = dict(
        apps=("cruise-control", "active-suspension", "servo-rig"),
        wait_step=16,
        horizon=1.0,
        disturbance="sporadic",
    )
    settings.update(overrides)
    return get_scenario("fig5-cosim").derive(name="lockstep-base", **settings)


def _comparable(result):
    data = result.to_dict()
    data.pop("provenance")
    for record in data["stages"]:
        record.pop("elapsed")
    return data


def _solo(scenarios):
    """Each scenario's :meth:`DesignStudy.run`, on a warm dwell cache
    (the characterize artifact counts its cache hits)."""
    for scenario in scenarios:
        DesignStudy(scenario, cache=_CACHE).run()
    return [_comparable(DesignStudy(s, cache=_CACHE).run()) for s in scenarios]


@needs_probe
def test_chunk_results_equal_design_study_runs(monkeypatch):
    scenarios = [
        _fig5(network=network, loss_rate=loss, seed=seed)
        for seed, (network, loss) in enumerate(
            [("flexray", 0.0), ("analytic", 0.05), ("can", 0.02), ("flexray", 0.05)]
        )
    ]
    # and incompatible members: a multi-rate roster, the event kernel,
    # another horizon, a study skipping its co-simulation, a failed one
    scenarios += [
        get_scenario("multirate-cosim-analytic").derive(
            apps=("motor-current-loop", "servo-rig"), wait_step=4, horizon=1.0
        ),
        _fig5(kernel="event", seed=7),
        _fig5(horizon=1.5, seed=8),
        _fig5(cosim=False, seed=9),
        _fig5(deadline_scale=1e-3, seed=10),
    ]
    expected = _solo(scenarios)
    heights = []

    def recording(simulators, horizons):
        heights.append(len(simulators))
        return run_together(simulators, horizons)

    monkeypatch.setattr(runner, "run_together", recording)
    chunk = run_chunk(scenarios, cache=_CACHE)
    assert heights == [4]  # the four fig5 studies; the rest ran alone
    assert [_comparable(result) for result in chunk] == expected
    kernels = [r.artifact("cosim").get("kernel_used") for r in chunk]
    assert kernels == ["batch"] * 5 + ["event", "batch", None, None]
    grouped = chunk[0].stage("cosim")
    assert grouped.elapsed > 0.0 and chunk[0].duration == pytest.approx(
        sum(record.elapsed for record in chunk[0].stages)
    )


def _placement_free(rows):
    return [{k: v for k, v in row.items() if k != "duration"} for row in rows]


def _cells(sweep):
    """Per-cell statistics without the host-time metric."""
    cells = [cell.to_dict() for cell in sweep.cells]
    for cell in cells:
        cell["metrics"].pop("duration", None)
    return cells


def _sweep(executor, workers, base=None, **kwargs):
    return run_sweep(
        base or _fig5(),
        {"network": ["flexray", "analytic", "can"], "loss_rate": [0.0, 0.05]},
        replications=2,
        seed0=11,
        executor=executor,
        max_workers=workers,
        cache=_CACHE,
        keep_results=False,
        **kwargs,
    )


@needs_probe
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_sweep_rows_equal_across_executors(adaptive):
    kwargs = dict(ci_target=1e-9, max_replications=3) if adaptive else {}
    serial = _sweep("thread", 1, **kwargs)
    assert serial.executor == "serial"
    assert serial.rounds == (2 if adaptive else 1)
    for executor in ("thread", "process"):
        pooled = _sweep(executor, 2, **kwargs)
        assert pooled.executor == executor
        assert _placement_free(pooled.rows) == _placement_free(serial.rows)
        assert _cells(pooled) == _cells(serial)


@needs_probe
def test_pool_workers_hand_their_probe_verdicts_back(monkeypatch):
    """A process pool's workers probe the plant shapes they group; their
    verdicts land in the parent's memo, equal to the verdicts probed in
    process, and the next pool forks with them, so its workers probe
    nothing and hand nothing back."""
    landed = []
    adopt = runner.adopt_probe_verdicts

    def recording(verdicts):
        landed.append(verdicts)
        adopt(verdicts)

    monkeypatch.setattr(stepper, "_STACKED_PROBE", {})
    monkeypatch.setattr(runner, "adopt_probe_verdicts", recording)
    _sweep("process", 2)
    adopted = stepper.probe_verdicts()
    roster = [PLANTS[name]().model for name in ("cruise", "suspension", "servo")]
    assert set(adopted) == {(model.n_states, model.b.shape[1]) for model in roster}
    # the first chunk to land was its worker's first, on an empty memo
    assert len(landed) == 2 and landed[0] == adopted

    monkeypatch.setattr(stepper, "_STACKED_PROBE", {})
    assert {shape: stacked_safe(*shape) for shape in adopted} == adopted
    landed.clear()
    _sweep("process", 2)
    assert landed == [{}, {}]


class _Exploding:
    """Wraps one study's network so its co-simulation raises part-way."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sample_delays(self, time, period, submissions):
        if time >= 0.5:
            raise RuntimeError("injected crash")
        return self.inner.sample_delays(time, period, submissions)


#: The one replication that crashes: seed 12 of the lossy analytic cell.
def _doomed(network, loss_rate, seed):
    return (network, loss_rate, seed) == ("analytic", 0.05, 12)


def _explode_doomed(monkeypatch):
    real_build = stages.build_network

    def build_network(name, **kwargs):
        network = real_build(name, **kwargs)
        if _doomed(name, kwargs["loss_rate"], kwargs["seed"]):
            return _Exploding(network)
        return network

    monkeypatch.setattr(stages, "build_network", build_network)


@needs_probe
def test_a_crash_in_a_lockstep_group_lands_on_its_study(monkeypatch):
    """The group's run raises; every member is rebuilt and re-run alone,
    so the crash is the doomed study's outcome only."""
    scenarios = [
        _fig5(network=network, loss_rate=0.05, seed=12)
        for network in ("flexray", "analytic", "can")
    ]
    expected = _solo(scenarios)
    _explode_doomed(monkeypatch)
    heights = []

    def recording(simulators, horizons):
        heights.append(len(simulators))
        return run_together(simulators, horizons)

    monkeypatch.setattr(runner, "run_together", recording)
    flexray, analytic, can = run_chunk(scenarios, cache=_CACHE)
    assert heights == [3]  # then each study alone, through its own run
    assert isinstance(analytic, RuntimeError)
    assert [_comparable(flexray), _comparable(can)] == [expected[0], expected[2]]


@pytest.mark.parametrize("where", ["lockstep-kernel", "lockstep-chain", "alone"])
def test_process_pool_crash_lands_on_its_study_only(monkeypatch, where):
    """A crash injected into one replication becomes that study's crash
    row only — in a lockstep chunk (while its group runs, or in its own
    chain before the group forms) and in a chunk whose studies run alone
    (the event kernel) — and every other row equals the serial reference
    bitwise."""
    base = _fig5(kernel="event") if where == "alone" else _fig5()
    serial = _sweep("thread", 1, base=base)
    if where == "lockstep-chain":
        real_stage = stages.STAGES["characterize"]

        def characterize(ctx):
            s = ctx.scenario
            if _doomed(s.network, s.loss_rate, s.seed):
                raise RuntimeError("injected crash")
            return real_stage(ctx)

        monkeypatch.setitem(stages.STAGES, "characterize", characterize)
    else:
        _explode_doomed(monkeypatch)
    pooled = _sweep("process", 2, base=base)
    crashed = [row for row in pooled.rows if not row["ok"]]
    assert len(crashed) == 1
    assert crashed[0]["failed_stage"] == "worker"
    assert "RuntimeError" in crashed[0]["detail"]
    assert crashed[0]["seed"] == 12
    assert crashed[0]["cell"] == "lockstep-base[loss_rate=0.05,network=analytic]"
    others = [row for row in pooled.rows if row["ok"]]
    expected = [row for row in serial.rows if row["address"] != crashed[0]["address"]]
    assert _placement_free(others) == _placement_free(expected)


class _Unpicklable(Exception):
    """Rebuilding it from its args (as unpickling does) raises."""

    def __init__(self, study, reason):
        super().__init__(f"{study}: {reason}")


def test_an_unpicklable_crash_stays_on_its_study(monkeypatch):
    serial = _sweep("thread", 1)
    real_stage = stages.STAGES["characterize"]

    def characterize(ctx):
        s = ctx.scenario
        if _doomed(s.network, s.loss_rate, s.seed):
            raise _Unpicklable(s.name, "injected crash")
        return real_stage(ctx)

    monkeypatch.setitem(stages.STAGES, "characterize", characterize)
    pooled = _sweep("process", 2)
    (crashed,) = [row for row in pooled.rows if not row["ok"]]
    assert "_Unpicklable" in crashed["detail"] and "injected crash" in crashed["detail"]
    others = [row for row in pooled.rows if row["ok"]]
    expected = [row for row in serial.rows if row["address"] != crashed["address"]]
    assert _placement_free(others) == _placement_free(expected)


def test_default_pool_follows_cpu_affinity(monkeypatch):
    """Two CPUs counted, one usable: the sweep runs serially."""
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert runner.usable_cpus() == 1
    result = run_sweep(
        _fig5(cosim=False), replications=2, cache=_CACHE, keep_results=False
    )
    assert result.executor == "serial"
