"""Rule ``registry-purity`` — engines are built through the registry.

PR 3 unified every solver behind :func:`repro.core.engine.build_engine`:
the factory is where ``EngineConfig`` defaults are resolved, where
a ``config.max_shard_nodes`` cap wraps the method in a :class:`PartitionedEngine`,
and where the ``config`` attribute that persistence and the serving layer
rely on is attached.  An engine class instantiated directly skips all of that — the
resulting object has no config, cannot be refreshed by a service, and
silently bypasses sharding.  (The two pre-rule offenders were
``core/error_bounds.py`` and ``core/resistance_matrix.py``, fixed in the
same PR that added this rule.)

The rule finds every engine class in the project — a class decorated with
``register_engine(...)`` or whose bases name ``ResistanceEngine`` — and
flags any call to such a class outside the module that defines
``build_engine`` (the factory is the one legitimate construction site;
tests are simply not part of the scanned tree).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import Finding, Project, Rule, register_rule

_BASE_CLASS = "ResistanceEngine"
_FACTORY = "build_engine"
_REGISTRAR = "register_engine"


def _call_name(func: ast.expr) -> "str | None":
    """Terminal identifier of a call target (``X(...)`` / ``m.X(...)``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_engine_class(node: ast.ClassDef) -> bool:
    if node.name == _BASE_CLASS:
        return False
    for base in node.bases:
        if _call_name(base) == _BASE_CLASS:
            return True
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and _call_name(decorator.func) == _REGISTRAR
        ):
            return True
    return False


@register_rule
class RegistryPurityRule(Rule):
    rule_id = "registry-purity"
    severity = "error"
    description = (
        "engine classes are only instantiated by the build_engine factory"
    )

    def check_project(self, project: Project) -> "Iterable[Finding]":
        engine_classes: "set[str]" = set()
        factory_modules: "set[str]" = set()
        for module in project:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and _is_engine_class(node):
                    engine_classes.add(node.name)
                elif (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == _FACTORY
                ):
                    factory_modules.add(module.rel)
        if not engine_classes:
            return ()
        findings: "list[Finding]" = []
        for module in project:
            if module.rel in factory_modules:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node.func)
                if name in engine_classes:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"engine class '{name}' is instantiated directly; "
                            f"construct engines through {_FACTORY}() so the "
                            f"registry attaches config and handles "
                            f"sharding/persistence uniformly",
                        )
                    )
        return findings
