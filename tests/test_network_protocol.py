"""Network-backend registry, capability descriptors, batch dispatch (ISSUE 9).

The registry mirrors ``repro.solvers.registry`` (decorator registration,
sorted names, readable unknown-name errors); ``batch_capability`` now
interrogates ``capabilities()`` instead of ``isinstance``-sniffing, so
third-party backends opt in to a batch precomputation strategy by
*claiming* it — and subclasses of the stock backends never inherit the
claim: they run the live batch path (or the event kernel, when
multi-rate) unless they re-claim one.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.experiments import traces_bitwise_equal
from repro.flexray import FlexRayBus, paper_bus_config
from repro.sim import CoSimulator
from repro.sim.batch import batch_capability
from repro.sim.network import (
    AnalyticNetwork,
    BATCH_STRATEGIES,
    CanBusNetwork,
    FlexRayNetwork,
    IIDLoss,
    LossyNetwork,
    NetworkCapabilities,
    NetworkModel,
    UnknownNetworkError,
    build_network,
    get_network,
    network_names,
    network_table,
    register_network,
    unregister_network,
)
from test_cosim_batch_networks import assert_kernels_agree
from test_cosim_event import multirate_fleet, shared_fleet


class TestRegistry:
    def test_bundled_backends_are_registered(self):
        assert {"analytic", "can", "flexray"} <= set(network_names())

    def test_names_sorted(self):
        assert network_names() == sorted(network_names())

    def test_get_network_exposes_capability_metadata(self):
        spec = get_network("analytic")
        assert spec.deterministic
        assert spec.analytic_delays
        assert spec.batch == "analytic"
        can = get_network("can")
        assert can.deterministic
        assert can.batch == "can"

    def test_unknown_name_error_lists_registered(self):
        with pytest.raises(UnknownNetworkError) as excinfo:
            get_network("token-ring")
        message = str(excinfo.value)
        assert "token-ring" in message
        assert "analytic" in message and "can" in message

    def test_build_network_constructs_instances(self):
        network = build_network("can")
        assert isinstance(network, CanBusNetwork)
        lossy = build_network("can", loss_rate=0.1, seed=3)
        assert isinstance(lossy, LossyNetwork)
        assert lossy.capabilities().loss == "iid"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_network(
                "analytic",
                summary="imposter",
                deterministic=True,
                analytic_delays=True,
                batch=None,
                loss="none",
            )
            def _imposter(**kwargs):
                raise AssertionError("never built")

    def test_unknown_batch_strategy_rejected(self):
        """A registry row may only advertise a strategy the batch kernel
        knows, as a capability descriptor may only claim one."""
        with pytest.raises(ValueError, match="unknown batch_strategy 'mirrorr'"):

            @register_network("typo-net", batch="mirrorr")
            def _typo(**kwargs):
                raise AssertionError("never built")

        assert "typo-net" not in network_names()

    def test_register_overwrite_and_unregister(self):
        @register_network(
            "test-proto-null",
            summary="registry round-trip fixture",
            deterministic=True,
            analytic_delays=True,
            batch=None,
            loss="none",
        )
        def _build_null(**kwargs):
            return AnalyticNetwork()

        try:
            assert "test-proto-null" in network_names()
            assert isinstance(build_network("test-proto-null"), AnalyticNetwork)

            @register_network(
                "test-proto-null",
                summary="second generation",
                deterministic=True,
                analytic_delays=True,
                batch=None,
                loss="none",
                overwrite=True,
            )
            def _build_null_v2(**kwargs):
                return AnalyticNetwork(tt_delay=0.001)

            assert get_network("test-proto-null").summary == "second generation"
            assert build_network("test-proto-null").tt_delay == 0.001
        finally:
            unregister_network("test-proto-null")
        assert "test-proto-null" not in network_names()

    def test_network_table_rows_match_registry(self):
        table = network_table()
        assert [row["name"] for row in table] == network_names()
        for row in table:
            assert {"name", "summary", "deterministic", "batch"} <= set(row)


class TestCapabilities:
    def test_descriptor_validates_batch_strategy(self):
        with pytest.raises(ValueError, match="batch_strategy"):
            NetworkCapabilities(
                deterministic=True,
                analytic_delays=False,
                batch_strategy="warp-drive",
            )

    def test_descriptor_serializes(self):
        caps = AnalyticNetwork().capabilities()
        payload = caps.to_dict()
        assert payload["batch_strategy"] == "analytic"
        assert payload["deterministic"] is True

    def test_stock_backends_self_describe(self):
        assert AnalyticNetwork().capabilities().batch_strategy == "analytic"
        pristine = FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config()))
        assert pristine.capabilities().batch_strategy == "flexray"
        assert pristine.capabilities().deterministic
        lossy = FlexRayNetwork(
            bus=FlexRayBus(config=paper_bus_config()), loss_rate=0.1
        )
        # The schedule mirror draws the bus's own i.i.d. loss stream.
        assert lossy.capabilities().batch_strategy == "flexray"
        assert not lossy.capabilities().deterministic
        assert lossy.capabilities().loss == "iid"
        assert CanBusNetwork().capabilities().batch_strategy == "can"

    def test_loss_wrapper_demotes_capabilities(self):
        wrapped = LossyNetwork(
            inner=AnalyticNetwork(), loss=IIDLoss(rate=0.2, seed=0)
        )
        caps = wrapped.capabilities()
        assert caps.batch_strategy is None
        assert not caps.deterministic
        assert caps.loss == "iid"


    def test_loss_wrapper_passes_can_through_around_the_bus_only(self):
        """The ``"can"`` source drives a bus's tuple core, so only a
        stock wrapper whose inner *is* a claiming bus keeps the claim."""
        loss = lambda: IIDLoss(rate=0.2, seed=0)  # noqa: E731

        class TweakedCan(CanBusNetwork):
            pass

        class TweakedWrapper(LossyNetwork):
            pass

        wrapped = LossyNetwork(inner=CanBusNetwork(), loss=loss())
        assert wrapped.capabilities().batch_strategy == "can"
        assert not wrapped.capabilities().deterministic
        for composite in (
            LossyNetwork(inner=wrapped, loss=loss()),
            LossyNetwork(inner=TweakedCan(), loss=loss()),
            TweakedWrapper(inner=CanBusNetwork(), loss=loss()),
        ):
            assert composite.capabilities().batch_strategy is None


class TestBatchCapabilityDispatch:
    """``batch_capability`` classifies via ``capabilities()`` and the
    fleet's sampling periods, never via ``isinstance``."""

    def _sim(self, network):
        return CoSimulator(shared_fleet(), network)

    def test_stock_classification(self):
        assert batch_capability(self._sim(AnalyticNetwork())) == "analytic"
        pristine = FlexRayNetwork(bus=FlexRayBus(config=paper_bus_config()))
        assert batch_capability(self._sim(pristine)) == "flexray"
        lossy = lambda: FlexRayNetwork(  # noqa: E731
            bus=FlexRayBus(config=paper_bus_config()), loss_rate=0.1
        )
        assert batch_capability(self._sim(lossy())) == "flexray"
        assert batch_capability(self._sim(CanBusNetwork())) == "can"
        assert_kernels_agree(shared_fleet(), lossy, 3.0, "flexray")
        assert_kernels_agree(shared_fleet(), CanBusNetwork, 3.0, "can")

    def test_duck_typed_network_runs_live(self):
        class Duck:
            tt_delay = 0.0007
            et_delay = 0.020

            def sample_delays(self, time, period, submissions):
                return {s.name: self.tt_delay for s in submissions}

            def on_slot_change(self, slot, frame):
                pass

        assert batch_capability(self._sim(Duck())) == "live"
        assert_kernels_agree(shared_fleet(), Duck, 3.0, "live")

    def test_subclass_without_override_runs_live(self):
        class Tweaked(AnalyticNetwork):
            pass

        assert Tweaked().capabilities().batch_strategy is None
        assert batch_capability(self._sim(Tweaked())) == "live"
        assert_kernels_agree(shared_fleet(), Tweaked, 3.0, "live")

    def test_multirate_fleet_without_strategy_stays_on_event(self):
        """Only multi-rate fleets on strategy-less networks need the
        event kernel (lazy resolution through the event interface).  A
        CAN subclass is one: it never inherits the bus's claim."""

        class TweakedCan(CanBusNetwork):
            pass

        assert TweakedCan().capabilities().batch_strategy is None
        sim = CoSimulator(multirate_fleet(), TweakedCan())
        assert batch_capability(sim) is None
        sim.run(0.5)
        assert sim.last_kernel == "event"

    def test_subclass_opting_back_in_runs_batch_bitwise(self):
        """A subclass that keeps the analytic semantics can re-claim the
        strategy through ``capabilities()`` — the documented seam — and
        the batch kernel replays the event kernel bit for bit."""

        class StillAnalytic(AnalyticNetwork):
            def capabilities(self):
                return dataclasses.replace(
                    super().capabilities(), batch_strategy="analytic"
                )

        sim = CoSimulator(shared_fleet(), StillAnalytic())
        trace = sim.run(6.0)
        assert sim.last_kernel == "batch"
        reference = CoSimulator(
            shared_fleet(), AnalyticNetwork(), kernel="event"
        ).run(6.0)
        assert traces_bitwise_equal(trace, reference)

    def test_strategies_are_frozen(self):
        assert BATCH_STRATEGIES == ("analytic", "flexray", "can")


class TestNetworksCli:
    """``repro networks`` — the capability table, satellite (a)."""

    def test_text_listing(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "Registered network backends" in out
        for name in network_names():
            assert name in out
        assert "lowest frame id wins" in out  # CAN summary surfaced

    def test_json_listing_round_trips(self, capsys):
        assert main(["networks", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        rows = {spec["name"]: spec for spec in data["networks"]}
        assert set(rows) == set(network_names())
        assert rows["analytic"]["batch"] == "analytic"
        assert rows["can"]["batch"] == "can"
        assert rows["can"]["loss"] == "iid"
        assert rows["flexray"]["deterministic"] is True


class TestCompatibilityShims:
    def test_abc_instances_pass_runtime_checks(self):
        assert isinstance(AnalyticNetwork(), NetworkModel)
        assert isinstance(CanBusNetwork(), NetworkModel)
