"""Rule ``executor-escape`` — worker payloads must not mutate shared
state outside a lock.

Every callable handed to a pool (``ThreadedExecutor.map``,
``pool.submit``, a sharded engine's shard-build fan-out, the async batcher's
``threading.Thread``) runs on another thread, concurrently with its
submitter and with its sibling workers.  A payload that closes over
mutable shared state — ``self`` attributes, lists/dicts from the
enclosing frame — and mutates it without a lock is a data race the GIL
merely makes *rare*; and the ROADMAP's ``ProcessExecutor`` will make
the same payloads cross a pickle boundary, where the mutation silently
stops propagating at all.  This pass is written against the project
model so the later process-backed variant can reuse the same payload
resolution to gate picklability/mmap-backing.

Detection: a *submission site* is ``<receiver>.submit(...)`` /
``<receiver>.map(...)`` where the receiver's text mentions ``pool`` /
``executor`` / ``worker``, or ``threading.Thread(target=...)``.  The
payload (lambda, nested ``def``, module function or ``self.method``,
expanded transitively through same-class ``self.*()`` calls) is then
scanned for unlocked mutations of:

* ``self.X`` slots that are not lock-guarded anywhere in the class
  (model ``guarded_attrs``, MRO-wide) — unlocked writes to *guarded*
  slots are already ``lock-discipline``/``atomicity`` territory;
* mutator-method calls (``append``/``update``/``pop``/…) on such slots;
* names closed over from the enclosing frame (anything mutated that is
  neither a payload local nor ``self``).

Payloads that are *designed* to write disjoint slices of a shared array
(level-chunked Alg. 2, per-subbatch scatter into a result vector) carry
a reasoned ``# repro: ignore[executor-escape]`` on the mutation line —
the comment is the documentation that the disjointness argument exists.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.framework import Finding, ModuleInfo, Project, Rule, register_rule
from repro.analysis.model import (
    FunctionInfo,
    ProjectModel,
    build_model,
    is_lockish,
    self_attr_root,
    write_targets,
)

_SUBMITTISH = re.compile(r"pool|executor|worker", re.IGNORECASE)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "add", "update",
        "pop", "popleft", "popitem", "clear", "remove", "discard",
        "setdefault", "sort", "reverse", "write",
    }
)


@dataclass(frozen=True)
class _Body:
    """One resolved payload body to scan (possibly a transitive method)."""

    stmts: "tuple[ast.AST, ...]"
    module: ModuleInfo
    self_name: "str | None"
    class_qual: "str | None"
    desc: str  #: how the payload was named at the submission site


def _root_name(expr: ast.expr) -> "str | None":
    """Leftmost ``Name`` of an attribute/subscript chain, else ``None``."""
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _enclosing_self(fn: FunctionInfo) -> "str | None":
    if fn.owner_class is not None and fn.node.args.args:
        return fn.node.args.args[0].arg
    return None


def _submission_payload(call: ast.Call) -> "tuple[ast.expr, str] | None":
    """The submitted callable of a pool/thread submission site, if any."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("submit", "map"):
        try:
            receiver_text = ast.unparse(func.value)
        except Exception:  # pragma: no cover - unparse is total here
            return None
        if _SUBMITTISH.search(receiver_text) and call.args:
            return call.args[0], f".{func.attr}()"
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name == "Thread":
        for keyword in call.keywords:
            if keyword.arg == "target":
                return keyword.value, "Thread(target=...)"
    return None


def _collect_locals(stmts: "tuple[ast.AST, ...]") -> "set[str]":
    """Names bound inside the payload body (stores, loop/with targets)."""
    out: "set[str]" = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add(node.name)
    return out


@register_rule
class ExecutorEscapeRule(Rule):
    rule_id = "executor-escape"
    severity = "error"
    description = (
        "callables handed to executor/pool workers must not mutate "
        "shared state outside a lock"
    )

    def check_project(self, project: Project) -> "Iterable[Finding]":
        model = build_model(project)
        findings: "list[Finding]" = []
        for qual in sorted(model.functions):
            fn = model.functions[qual]
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                payload = _submission_payload(node)
                if payload is None:
                    continue
                expr, how = payload
                findings.extend(self._check_payload(model, fn, expr, how))
        return findings

    # ------------------------------------------------------------------
    def _resolve_payload(
        self, model: ProjectModel, fn: FunctionInfo, expr: ast.expr
    ) -> "list[_Body]":
        if isinstance(expr, ast.Lambda):
            return [
                _Body(
                    (expr.body,),
                    fn.module,
                    _enclosing_self(fn),
                    fn.owner_class,
                    "lambda",
                )
            ]
        if isinstance(expr, ast.Name):
            for node in ast.walk(fn.node):  # nested def in the submitter
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == expr.id
                ):
                    return [
                        _Body(
                            tuple(node.body),
                            fn.module,
                            _enclosing_self(fn),
                            fn.owner_class,
                            f"'{expr.id}'",
                        )
                    ]
            resolved = model.resolve_name(fn.module, expr.id)
            if resolved is not None and resolved in model.functions:
                target = model.functions[resolved]
                return [
                    _Body(
                        tuple(target.node.body),
                        target.module,
                        None,
                        None,
                        f"'{expr.id}'",
                    )
                ]
            return []
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and fn.owner_class is not None
            and expr.value.id == _enclosing_self(fn)
        ):
            out: "list[_Body]" = []
            for target in model.resolve_method(fn.owner_class, expr.attr):
                self_name = (
                    target.node.args.args[0].arg
                    if target.node.args.args
                    else None
                )
                out.append(
                    _Body(
                        tuple(target.node.body),
                        target.module,
                        self_name,
                        target.owner_class,
                        f"'self.{expr.attr}'",
                    )
                )
            return out
        return []  # data arguments, partials, etc. — not resolvable

    def _check_payload(
        self,
        model: ProjectModel,
        fn: FunctionInfo,
        expr: ast.expr,
        how: str,
    ) -> "Iterable[Finding]":
        findings: "list[Finding]" = []
        queue = self._resolve_payload(model, fn, expr)
        seen: "set[int]" = {id(body.stmts[0]) for body in queue if body.stmts}
        while queue:
            body = queue.pop(0)
            more = self._scan_body(model, fn, body, how, findings)
            for extra in more:
                if extra.stmts and id(extra.stmts[0]) not in seen:
                    seen.add(id(extra.stmts[0]))
                    queue.append(extra)
        return findings

    def _scan_body(
        self,
        model: ProjectModel,
        submitter: FunctionInfo,
        body: _Body,
        how: str,
        findings: "list[Finding]",
    ) -> "list[_Body]":
        guarded = (
            model.guarded_attrs(body.class_qual)
            if body.class_qual is not None
            else frozenset()
        )
        locals_ = _collect_locals(body.stmts)
        expansions: "list[_Body]" = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(
                self.finding(
                    body.module,
                    node,
                    f"worker payload {body.desc} (submitted via {how} in "
                    f"'{submitter.qualname}') {what} outside any lock — "
                    f"shared state escapes the executor boundary",
                )
            )

        def visit(node: ast.AST, locked: bool) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inside = locked or any(
                    is_lockish(item.context_expr) for item in node.items
                )
                for item in node.items:
                    visit(item.context_expr, locked)
                for child in node.body:
                    visit(child, inside)
                return
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                return  # a further deferred scope: out of this payload
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in write_targets(node):
                    self._judge_target(
                        node, target, body, guarded, locals_, locked, flag
                    )
            if isinstance(node, ast.Call):
                self._judge_call(
                    model, node, body, guarded, locals_, locked, flag, expansions
                )
            for child in ast.iter_child_nodes(node):
                visit(child, locked)

        for stmt in body.stmts:
            visit(stmt, False)
        return expansions

    def _judge_target(
        self,
        stmt: ast.AST,
        target: ast.expr,
        body: _Body,
        guarded: "frozenset[str]",
        locals_: "set[str]",
        locked: bool,
        flag: "Callable[[ast.AST, str], None]",
    ) -> None:
        if body.self_name is not None:
            attr = self_attr_root(target, body.self_name)
            if attr is not None:
                if not locked and attr not in guarded:
                    flag(stmt, f"writes 'self.{attr}'")
                return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = _root_name(target)
            if (
                root is not None
                and root != body.self_name
                and root not in locals_
                and not locked
            ):
                flag(stmt, f"mutates closed-over '{root}'")

    def _judge_call(
        self,
        model: ProjectModel,
        call: ast.Call,
        body: _Body,
        guarded: "frozenset[str]",
        locals_: "set[str]",
        locked: bool,
        flag: "Callable[[ast.AST, str], None]",
        expansions: "list[_Body]",
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        # transitive expansion: self.method() stays on the worker thread
        if (
            body.self_name is not None
            and body.class_qual is not None
            and isinstance(func.value, ast.Name)
            and func.value.id == body.self_name
        ):
            for target in model.resolve_method(body.class_qual, func.attr):
                self_name = (
                    target.node.args.args[0].arg
                    if target.node.args.args
                    else None
                )
                expansions.append(
                    _Body(
                        tuple(target.node.body),
                        target.module,
                        self_name,
                        target.owner_class,
                        body.desc,
                    )
                )
            return
        if func.attr not in _MUTATORS:
            return
        receiver = func.value
        if body.self_name is not None:
            attr = self_attr_root(receiver, body.self_name)
            if attr is not None:
                if not locked and attr not in guarded:
                    flag(call, f"calls 'self.{attr}.{func.attr}()'")
                return
        root = _root_name(receiver)
        if (
            root is not None
            and root != body.self_name
            and root not in locals_
            and not locked
        ):
            flag(call, f"calls a mutator '.{func.attr}()' on closed-over '{root}'")
