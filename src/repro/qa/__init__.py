"""Static analysis for the determinism contract (``repro lint``).

The simulator's headline guarantee — bitwise-identical traces across
the event and batch kernels and seed-stable sweeps — rests on
conventions no generic linter knows about.  This package turns them
into machine-checked rules over the AST:

========  ===========================================================
QA001     no unseeded randomness (module-level ``np.random``, bare
          ``random.*``, ``default_rng()`` without a seed)
QA002     no wall-clock reads (``time.time``, ``datetime.now``) in
          ``repro.sim`` / ``repro.flexray`` / ``repro.solvers``
QA003     no float-tolerance comparison (``np.isclose``,
          ``abs(a-b) < eps``, ``np.spacing``) on event/barrier time
          values in ``repro.sim`` — times compare by integer-ns
          equality
QA004     scenario/solver/kernel name literals must resolve against
          the live registries
QA005     dataclasses shipped to process-pool workers must not carry
          unpicklable members (lambdas, open handles)
========  ===========================================================

Deliberate exceptions are annotated inline with
``# repro: allow[QA003]`` (one line, named rules only; unknown ids are
themselves findings).  Run it as ``repro lint [paths] [--json]
[--rule ID]``; exit status 1 means error findings, which is the CI
gate.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.qa.engine import (
    LintResult,
    META_RULE_ID,
    ModuleContext,
    Rule,
    lint_paths,
    lint_source,
)
from repro.qa.findings import Finding, SEVERITIES
from repro.qa.report import render_json, render_text, report_dict
from repro.qa.rules_determinism import (
    FloatTimeCompareRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.qa.rules_structure import RegistryLiteralRule, UnpicklablePayloadRule

_RULE_CLASSES = (
    UnseededRandomRule,
    WallClockRule,
    FloatTimeCompareRule,
    RegistryLiteralRule,
    UnpicklablePayloadRule,
)


def all_rules() -> Tuple[Rule, ...]:
    """Fresh instances of every built-in rule, in id order."""
    return tuple(rule_class() for rule_class in _RULE_CLASSES)


def rule_ids() -> List[str]:
    """Ids of the built-in ruleset (without :data:`META_RULE_ID`)."""
    return [rule_class.rule_id for rule_class in _RULE_CLASSES]


def rules_by_id() -> Dict[str, Rule]:
    return {rule.rule_id: rule for rule in all_rules()}


__all__ = [
    "Finding",
    "FloatTimeCompareRule",
    "LintResult",
    "META_RULE_ID",
    "ModuleContext",
    "RegistryLiteralRule",
    "Rule",
    "SEVERITIES",
    "UnpicklablePayloadRule",
    "UnseededRandomRule",
    "WallClockRule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "report_dict",
    "rule_ids",
    "rules_by_id",
]
