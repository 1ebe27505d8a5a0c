"""Public-API contract tests.

Guards the package surface a downstream user depends on: everything in
``__all__`` resolves, the README quickstart works verbatim, and the
subpackage exports stay importable.
"""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "module",
        [
            "repro.utils",
            "repro.control",
            "repro.flexray",
            "repro.testbed",
            "repro.core",
            "repro.sim",
            "repro.baselines",
            "repro.solvers",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro import PAPER_TABLE_I, allocate, make_analyzed

        apps = make_analyzed(PAPER_TABLE_I, "non-monotonic")
        assert allocate("first-fit", apps).slot_names == [
            ["C3", "C6"],
            ["C2", "C4"],
            ["C5", "C1"],
        ]

        mono = make_analyzed(PAPER_TABLE_I, "conservative-monotonic")
        assert allocate("first-fit", mono).slot_count == 5
