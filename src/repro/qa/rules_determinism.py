"""Determinism rules: seeded randomness, no wall clocks, exact time compares.

These encode the contract behind the kernel-parity guarantee (event
and batch traces are bitwise identical) and seed-stable sweeps:
every random draw flows from an explicit seed, simulation kernels never
read the host clock, and event/barrier instants compare by integer-ns
equality rather than float tolerance.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.qa.engine import ModuleContext, Rule, dotted_name
from repro.qa.findings import Finding

_NUMPY_ALIASES = ("np", "numpy")

#: ``np.random`` entry points that are fine *when given an explicit
#: seed* — the sanctioned way to obtain randomness.
_SEEDABLE_CONSTRUCTORS = ("default_rng", "RandomState", "Generator", "Random", "SeedSequence")


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _unseeded(call: ast.Call) -> bool:
    """True when the call passes no usable seed (no args, or ``None``)."""
    if call.args and not _is_none(call.args[0]):
        return False
    for keyword in call.keywords:
        if keyword.arg == "seed" and not _is_none(keyword.value):
            return False
    return True


class UnseededRandomRule(Rule):
    """QA001 — every random draw must flow from an explicit seed."""

    rule_id = "QA001"
    title = "no unseeded randomness"
    rationale = (
        "Module-level np.random / bare random.* calls draw from hidden "
        "global state, so traces stop being a function of the scenario "
        "seed; construct a generator with an explicit seed instead "
        "(np.random.default_rng(seed), random.Random(seed))."
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            if isinstance(node.func, ast.Name):
                name = node.func.id
            else:
                return
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in _NUMPY_ALIASES and parts[1] == "random":
            function = parts[2]
            if function in _SEEDABLE_CONSTRUCTORS:
                if _unseeded(node):
                    yield ctx.finding(
                        self,
                        node,
                        f"{name}() without an explicit seed draws OS entropy; "
                        f"pass a seed derived from the scenario",
                    )
            else:
                yield ctx.finding(
                    self,
                    node,
                    f"module-level {name}() uses the hidden global RNG; "
                    f"use a seeded np.random.default_rng(seed) generator",
                )
        elif len(parts) == 2 and parts[0] == "random":
            function = parts[1]
            if function in _SEEDABLE_CONSTRUCTORS:
                if _unseeded(node):
                    yield ctx.finding(
                        self,
                        node,
                        f"{name}() without an explicit seed draws OS entropy; "
                        f"pass a seed derived from the scenario",
                    )
            else:
                yield ctx.finding(
                    self,
                    node,
                    f"bare {name}() uses the global Mersenne Twister; "
                    f"use a seeded random.Random(seed) instance",
                )
        elif len(parts) == 1 and parts[0] == "default_rng":
            if _unseeded(node):
                yield ctx.finding(
                    self,
                    node,
                    "default_rng() without an explicit seed draws OS entropy; "
                    "pass a seed derived from the scenario",
                )


#: Wall-clock reads that make kernel behaviour depend on the host.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    """QA002 — simulation/solver kernels never read the host clock."""

    rule_id = "QA002"
    title = "no wall-clock reads in kernels"
    rationale = (
        "Simulated time is integer-ns event time; reading the host clock "
        "inside repro.sim / repro.flexray / repro.solvers couples results "
        "to the machine and to NTP steps.  Duration timing belongs in the "
        "pipeline/benchmark layer and uses time.perf_counter().  The "
        "fabric layer is exempt: leases, heartbeats, retry backoff "
        "sleeps (repro.fabric.resilience) and job timestamps are about "
        "real machines, not simulated ones."
    )
    scope = (
        "repro.sim",
        "repro.flexray",
        "repro.solvers",
        "repro.pipeline",
        "repro.fabric",
    )
    #: Distributed-coordination code legitimately reads the host clock
    #: (lease deadlines, submitted_at stamps); results stay seeded.
    allow_modules = ("repro.fabric",)
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            yield ctx.finding(
                self,
                node,
                f"wall-clock read {name}() inside a kernel module; kernels "
                f"run on simulated time (durations: time.perf_counter() "
                f"outside the kernel)",
            )


#: Identifier tokens that mark a value as an event/barrier time.
_TIME_TOKENS = frozenset(
    {
        "t",
        "t0",
        "t1",
        "time",
        "times",
        "tick",
        "ticks",
        "instant",
        "instants",
        "barrier",
        "barriers",
        "timestamp",
        "timestamps",
        "ts",
        "ns",
        "release",
        "delivery",
        "grant",
        "grants",
        "transmit",
        "window",
        "windows",
        "deadline",
        "deadlines",
        "response",
        "responses",
        "horizon",
        "when",
    }
)

_ISCLOSE_CALLS = frozenset(
    {
        "np.isclose",
        "numpy.isclose",
        "np.allclose",
        "numpy.allclose",
        "math.isclose",
        "isclose",
    }
)

_SPACING_CALLS = frozenset({"np.spacing", "numpy.spacing", "spacing"})


def _is_timeish(identifier: str) -> bool:
    return any(token in _TIME_TOKENS for token in identifier.lower().split("_"))


def _mentions_time(nodes: Iterable[ast.AST]) -> bool:
    for root in nodes:
        for sub in ast.walk(root):
            if isinstance(sub, ast.Name) and _is_timeish(sub.id):
                return True
            if isinstance(sub, ast.Attribute) and _is_timeish(sub.attr):
                return True
    return False


def _abs_diff_operands(node: ast.AST):
    """The ``(a, b)`` of an ``abs(a - b)`` call, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "abs"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.BinOp)
        and isinstance(node.args[0].op, ast.Sub)
    ):
        return node.args[0].left, node.args[0].right
    return None


class FloatTimeCompareRule(Rule):
    """QA003 — event/barrier times compare by integer-ns equality."""

    rule_id = "QA003"
    title = "no float-tolerance compares on event times"
    rationale = (
        "Barrier coalescing buckets events on integer-ns timestamps "
        "(the PR 5 contract); an np.isclose / abs(a-b) < eps on a time "
        "value re-introduces platform-dependent grouping and breaks "
        "bitwise kernel parity.  Compare times with == on the ns grid."
    )
    scope = ("repro.sim",)
    node_types = (ast.Call, ast.Compare)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None and isinstance(node.func, ast.Name):
                name = node.func.id
            if name in _SPACING_CALLS:
                yield ctx.finding(
                    self,
                    node,
                    f"{name}() derives a float epsilon inside the simulator; "
                    f"the kernels bucket instants on the integer-ns grid",
                )
            elif name in _ISCLOSE_CALLS and _mentions_time(
                list(node.args) + [kw.value for kw in node.keywords]
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{name}() on a time value; event/barrier instants "
                    f"compare by integer-ns equality",
                )
        elif isinstance(node, ast.Compare):
            sides = [node.left] + list(node.comparators)
            ops_ordered = any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
            )
            if not ops_ordered:
                return
            for side in sides:
                operands = _abs_diff_operands(side)
                if operands is not None and _mentions_time(operands):
                    yield ctx.finding(
                        self,
                        node,
                        "abs(a - b) < eps tolerance on a time value; "
                        "event/barrier instants compare by integer-ns equality",
                    )
                    return


__all__ = ["FloatTimeCompareRule", "UnseededRandomRule", "WallClockRule"]
