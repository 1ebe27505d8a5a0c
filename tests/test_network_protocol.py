"""Network-backend registry and the one network interface.

The registry mirrors ``repro.solvers.registry`` (decorator registration,
sorted names, readable unknown-name errors).  Both kernels drive every
network through its own methods, so stock backends, their subclasses
and duck types all run the batch kernel under ``kernel="auto"``,
bitwise equal to the event kernel.
"""

import json

import pytest

from repro.cli import main
from repro.flexray import FlexRayBus, paper_bus_config
from repro.sim.network import (
    AnalyticNetwork,
    CanBusNetwork,
    FlexRayNetwork,
    LossyNetwork,
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
        can = get_network("can")
        assert can.deterministic

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

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_network(
                "analytic",
                summary="imposter",
                deterministic=True,
                analytic_delays=True,
                loss="none",
            )
            def _imposter(**kwargs):
                raise AssertionError("never built")

    def test_register_overwrite_and_unregister(self):
        @register_network(
            "test-proto-null",
            summary="registry round-trip fixture",
            deterministic=True,
            analytic_delays=True,
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
            assert {"name", "summary", "deterministic", "loss"} <= set(row)


class TestEveryNetworkBatches:
    """``auto`` runs the batch kernel on stock backends, subclasses and
    duck types alike, for shared-period and multi-rate fleets."""

    def test_stock_backends(self):
        lossy = lambda: FlexRayNetwork(  # noqa: E731
            bus=FlexRayBus(config=paper_bus_config()), loss_rate=0.1
        )
        assert_kernels_agree(shared_fleet(), lossy, 3.0)
        assert_kernels_agree(shared_fleet(), CanBusNetwork, 3.0)

    def test_duck_typed_network(self):
        class Duck:
            tt_delay = 0.0007
            et_delay = 0.020

            def sample_delays(self, time, period, submissions):
                return {name: self.tt_delay for name, _, _, _ in submissions}

            def on_slot_change(self, slot, frame):
                pass

        assert_kernels_agree(shared_fleet(), Duck, 3.0)

    def test_subclass_without_override(self):
        class Tweaked(AnalyticNetwork):
            pass

        assert_kernels_agree(shared_fleet(), Tweaked, 3.0)

    def test_multirate_fleet_on_a_subclass(self):
        """A multi-rate fleet on a CAN subclass runs the batch kernel,
        bitwise."""

        class TweakedCan(CanBusNetwork):
            pass

        assert_kernels_agree(multirate_fleet(), TweakedCan, 0.5)


class TestNetworksCli:
    """``repro networks`` — the backend table."""

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
        assert all("batch" not in row for row in rows.values())
        assert rows["can"]["loss"] == "iid"
        assert rows["flexray"]["deterministic"] is True


class TestCompatibilityShims:
    def test_abc_instances_pass_runtime_checks(self):
        assert isinstance(AnalyticNetwork(), NetworkModel)
        assert isinstance(CanBusNetwork(), NetworkModel)
