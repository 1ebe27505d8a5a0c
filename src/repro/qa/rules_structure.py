"""Structural rules: registry-checked name literals, picklable payloads.

QA004 resolves scenario/solver/kernel name *literals* against the live
registries at lint time, so a typo'd ``Scenario(allocator="frist-fit")``
or ``get_scenario("fig5-cosmi")`` fails in CI instead of deep inside a
sweep.  QA005 structurally rejects dataclass members that cannot cross
a :class:`~concurrent.futures.ProcessPoolExecutor` boundary (lambdas,
open handles), because ``run_many(executor="process")`` and the sweep
workers pickle their payloads.
"""

from __future__ import annotations

import ast
import difflib
from typing import Dict, FrozenSet, Iterator, Optional

from repro.qa.engine import ModuleContext, Rule, dotted_name
from repro.qa.findings import Finding

#: Entry points whose first positional string argument is a registry name.
_FIRST_ARG_KINDS = {
    "get_scenario": "scenario",
    "DesignStudy": "scenario",
    "get_allocator": "allocator",
    "allocate": "allocator",
    "get_analysis_method": "analysis method",
    # network-backend registry: get_network("can") / build_network("can", ...)
    "get_network": "network",
    "build_network": "network",
    # fabric wire protocol: make_msg("lease", ...) / channel.send_msg("job", ...)
    "make_msg": "fabric message",
    "send_msg": "fabric message",
    # study-service job lifecycle: record.advance("running")
    "advance": "job state",
}

#: Keyword arguments of Scenario(...) / .derive(...) checked against a
#: registry or choice tuple.
_KEYWORD_KINDS = {
    "allocator": "allocator",
    "method": "analysis method",
    "kernel": "kernel",
    "source": "source",
    "network": "network",
    "disturbance": "disturbance",
    "dwell_shape": "dwell_shape",
}

#: scenario_grid(...) takes the plural, sequence-valued spellings.
_PLURAL_KEYWORD_KINDS = {
    "allocators": "allocator",
    "dwell_shapes": "dwell_shape",
}

_SCENARIO_CALLEES = ("Scenario", "derive", "scenario_grid")


def _last_name(node: ast.AST) -> Optional[str]:
    """Trailing identifier of a callee (``pipeline.get_scenario`` → same)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class RegistryLiteralRule(Rule):
    """QA004 — name literals must resolve against the live registries."""

    rule_id = "QA004"
    title = "registry name literals must resolve"
    rationale = (
        "Scenario, allocator, analysis-method, network, kernel and stage names "
        "are registry keys; a literal that is not registered raises "
        "only when that code path finally runs.  Checking against the "
        "live registries moves the failure to lint time."
    )
    node_types = (ast.Call, ast.Subscript)

    _REGISTRIES: Optional[Dict[str, FrozenSet[str]]] = None

    @classmethod
    def _registries(cls) -> Dict[str, FrozenSet[str]]:
        """Live registry snapshots, loaded once per process.

        Importing the pipeline registers every built-in; third-party
        backends registered before linting are accepted the same way.
        When the runtime is unavailable the rule goes inert rather
        than reporting false unknowns.
        """
        if cls._REGISTRIES is None:
            try:
                from repro.pipeline.registry import scenario_names
                from repro.pipeline.scenario import (
                    DISTURBANCES,
                    DWELL_SHAPES,
                    KERNELS,
                    SOURCES,
                )
                from repro.fabric.protocol import MESSAGE_TYPES
                from repro.fabric.service import JOB_STATES
                from repro.pipeline.stages import STAGE_ORDER
                from repro.sim.network import network_names
                from repro.solvers import allocator_names, analysis_method_names

                cls._REGISTRIES = {
                    "scenario": frozenset(scenario_names()),
                    "allocator": frozenset(allocator_names()),
                    "analysis method": frozenset(analysis_method_names()),
                    "kernel": frozenset(KERNELS),
                    "source": frozenset(SOURCES),
                    # Live registry (not the documentation tuple), so a
                    # third-party backend registered before linting is
                    # a legal literal.
                    "network": frozenset(network_names()),
                    "disturbance": frozenset(DISTURBANCES),
                    "dwell_shape": frozenset(DWELL_SHAPES),
                    "stage": frozenset(STAGE_ORDER),
                    "fabric message": frozenset(MESSAGE_TYPES),
                    "job state": frozenset(JOB_STATES),
                }
            except Exception:
                cls._REGISTRIES = {}
        return cls._REGISTRIES

    def _check(
        self, kind: str, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            return
        registered = self._registries().get(kind)
        if registered is None or node.value in registered:
            return
        # Lead with the closest matches (typos are the whole point).
        close = difflib.get_close_matches(node.value, sorted(registered), n=3)
        remainder = [name for name in sorted(registered) if name not in close]
        shown = (close + remainder)[:6]
        preview = ", ".join(shown)
        if len(registered) > len(shown):
            preview += ", ..."
        yield ctx.finding(
            self,
            node,
            f"unknown {kind} {node.value!r} will fail at runtime; "
            f"registered: {preview}",
        )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if not self._registries():
            return
        if isinstance(node, ast.Subscript):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "STAGES"
                and isinstance(node.slice, ast.Constant)
            ):
                yield from self._check("stage", node.slice, ctx)
            return
        callee = _last_name(node.func)
        if callee is None:
            return
        kind = _FIRST_ARG_KINDS.get(callee)
        if kind is not None and node.args:
            yield from self._check(kind, node.args[0], ctx)
        if callee not in _SCENARIO_CALLEES:
            return
        for keyword in node.keywords:
            kind = _KEYWORD_KINDS.get(keyword.arg or "")
            if kind is not None:
                yield from self._check(kind, keyword.value, ctx)
                continue
            plural_kind = _PLURAL_KEYWORD_KINDS.get(keyword.arg or "")
            if plural_kind is not None and isinstance(
                keyword.value, (ast.Tuple, ast.List)
            ):
                for element in keyword.value.elts:
                    yield from self._check(plural_kind, element, ctx)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target) or _last_name(target)
        if name in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _is_open_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    )


class UnpicklablePayloadRule(Rule):
    """QA005 — pool payload dataclasses stay picklable."""

    rule_id = "QA005"
    title = "no unpicklable members on pool payloads"
    rationale = (
        'run_many(executor="process") and the sweep workers pickle '
        "Scenario/result dataclasses to ProcessPoolExecutor workers; a "
        "lambda or open handle stored on an instance raises "
        "PicklingError only when the process pool is first used."
    )
    scope = ("repro.pipeline", "repro.sim")
    node_types = (ast.ClassDef,)

    def visit(self, node: ast.ClassDef, ctx: ModuleContext) -> Iterator[Finding]:
        if not _is_dataclass_decorated(node):
            return
        for statement in node.body:
            value = getattr(statement, "value", None)
            if isinstance(statement, (ast.Assign, ast.AnnAssign)) and value is not None:
                yield from self._check_default(node.name, value, ctx)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if isinstance(sub.value, ast.Lambda):
                        yield ctx.finding(
                            self,
                            sub,
                            f"{node.name}.{target.attr} holds a lambda; "
                            f"instances won't pickle to process-pool workers",
                        )
                    elif _is_open_call(sub.value):
                        yield ctx.finding(
                            self,
                            sub,
                            f"{node.name}.{target.attr} holds an open file "
                            f"handle; instances won't pickle to process-pool "
                            f"workers",
                        )

    def _check_default(
        self, class_name: str, value: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        if isinstance(value, ast.Lambda):
            yield ctx.finding(
                self,
                value,
                f"{class_name} field default is a lambda; instances won't "
                f"pickle to process-pool workers (wrap it in a named "
                f"function or use default_factory)",
            )
        elif _is_open_call(value):
            yield ctx.finding(
                self,
                value,
                f"{class_name} field default is an open handle; instances "
                f"won't pickle to process-pool workers",
            )
        elif isinstance(value, ast.Call) and _last_name(value.func) == "field":
            for keyword in value.keywords:
                # default_factory=lambda is fine: the *result* is stored.
                if keyword.arg == "default" and (
                    isinstance(keyword.value, ast.Lambda)
                    or _is_open_call(keyword.value)
                ):
                    yield ctx.finding(
                        self,
                        keyword.value,
                        f"{class_name} field(default=...) stores an "
                        f"unpicklable object on every instance",
                    )


__all__ = ["RegistryLiteralRule", "UnpicklablePayloadRule"]
