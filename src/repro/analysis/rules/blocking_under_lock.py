"""Rule ``blocking-under-lock`` — no slow work inside a critical section.

A lock that is held across an engine factorisation, a file load or a
pool drain turns every concurrent reader into a queue: the paper's whole
point is that queries are cheap *because* the expensive Cholesky work
happened up front, and one careless ``with self._lock:`` around
``build_engine`` silently serialises the query path.  The rule flags any
call made while a lock is held that can *reach* a blocking primitive:

* engine factorisation — ``build_engine(s)``, ``approximate_inverse(s)``,
  ``schur_reduce``;
* file I/O — ``load_engine`` / ``save_engine``, ``np.load`` /
  ``np.save`` / ``np.savez`` / ``np.savez_compressed``;
* executor waits — ``Future.result()``, ``concurrent.futures.wait``,
  pool ``shutdown``, thread ``join``, ``time.sleep``.

"Can reach" is the project model's call graph closed to a fixpoint, so
``self._build_system(c)`` under a per-component lock is flagged because
a nested worker three calls down runs ``schur_reduce``.  Nested ``def``s
and lambdas *are* scanned for primitives (they usually run inline or on
the submitting path) but calls to them cannot be resolved — unresolved
calls contribute nothing, keeping the rule free of phantom findings.
``Condition.wait`` is exempt: it releases the lock it is called under.

Some critical sections exist precisely to serialise a build (per-shard
build locks, the refresh lock): mark those lines with a reasoned
``# repro: ignore[blocking-under-lock]`` stating which lock is the
designated build serialiser.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.framework import Finding, Project, Rule, register_rule
from repro.analysis.model import (
    FunctionInfo,
    LockId,
    ProjectModel,
    _final_name,
    build_model,
    is_lockish,
)

#: Engine factorisation entry points (anything that runs Alg. 1/2 or
#: assembles a Schur complement).
_BUILD_PRIMITIVES = frozenset({
    "build_engine", "build_engines", "approximate_inverse",
    "approximate_inverses", "schur_reduce",
})

#: Engine persistence entry points (disk round-trips).
_IO_PRIMITIVES = frozenset({"load_engine", "save_engine"})

#: ``np.<fn>`` calls that hit the filesystem.
_NUMPY_IO = frozenset({"load", "save", "savez", "savez_compressed"})

_POOLISH = re.compile(r"pool|executor", re.IGNORECASE)
_THREADISH = re.compile(r"thread|pool|worker", re.IGNORECASE)


def blocking_reason(call: ast.Call) -> "str | None":
    """Why this call blocks, if it is itself a blocking primitive."""
    func = call.func
    name = _final_name(func)
    if name in _BUILD_PRIMITIVES:
        return f"reaches engine factorisation '{name}()'"
    if name in _IO_PRIMITIVES:
        return f"reaches engine file I/O '{name}()'"
    if isinstance(func, ast.Attribute):
        receiver = func.value
        receiver_name = _final_name(receiver)
        if func.attr in _NUMPY_IO and receiver_name in ("np", "numpy"):
            return f"reaches numpy file I/O 'np.{func.attr}()'"
        if func.attr == "result":
            return "waits on a Future ('.result()')"
        if func.attr == "wait" and not is_lockish(receiver):
            # Condition.wait releases the lock it runs under — exempt.
            return "waits on futures/events ('.wait()')"
        if (
            func.attr == "shutdown"
            and receiver_name is not None
            and _POOLISH.search(receiver_name)
        ):
            return "waits for a worker pool to drain ('.shutdown()')"
        if (
            func.attr == "join"
            and receiver_name is not None
            and _THREADISH.search(receiver_name)
        ):
            return "joins a thread ('.join()')"
        if func.attr == "sleep" and receiver_name == "time":
            return "sleeps ('time.sleep()')"
    elif isinstance(func, ast.Name) and func.id == "sleep":
        return "sleeps ('sleep()')"
    return None


def _direct_reasons(model: ProjectModel) -> "dict[str, str]":
    """First blocking primitive syntactically inside each function.

    Unlike the call-graph walk this scan *does* enter nested ``def``s and
    lambdas: a worker closure handed to ``pool.map`` inside the function
    is part of the work the function performs.
    """
    out: "dict[str, str]" = {}
    for qual in sorted(model.functions):
        fn = model.functions[qual]
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                reason = blocking_reason(node)
                if reason is not None:
                    out[qual] = reason
                    break
    return out


def _star_reasons(model: ProjectModel) -> "dict[str, str]":
    """Fixpoint: a function blocks if it calls a function that blocks."""
    star = _direct_reasons(model)
    changed = True
    while changed:
        changed = False
        for qual in sorted(model.functions):
            if qual in star:
                continue
            fn = model.functions[qual]
            for callee in sorted(fn.callees):
                if callee in star:
                    star[qual] = star[callee]
                    changed = True
                    break
    return star


def _call_text(call: ast.Call) -> str:
    try:
        return ast.unparse(call.func)
    except Exception:  # pragma: no cover - unparse is total on parsed ASTs
        return "<call>"


@register_rule
class BlockingUnderLockRule(Rule):
    rule_id = "blocking-under-lock"
    severity = "error"
    description = (
        "no call reaching an engine build, file I/O or an executor "
        "wait may run while a lock is held"
    )

    def check_project(self, project: Project) -> "Iterable[Finding]":
        model = build_model(project)
        star = _star_reasons(model)
        findings: "list[Finding]" = []
        for qual in sorted(model.functions):
            fn = model.functions[qual]
            for event in fn.events:
                if event.kind != "call" or not event.held:
                    continue
                call = event.node
                if not isinstance(call, ast.Call):
                    continue
                findings.extend(self._judge(fn, call, event.held, star))
        return findings

    def _judge(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        held: "tuple[LockId, ...]",
        star: "dict[str, str]",
    ) -> "Iterable[Finding]":
        reason = blocking_reason(call)
        via: "str | None" = None
        if reason is None:
            for callee in fn.resolved(call):
                if callee in star:
                    reason, via = star[callee], callee
                    break
        if reason is None:
            return
        lock_label = held[-1].label
        message = (
            f"'{_call_text(call)}(...)' runs while lock "
            f"'{lock_label}' is held: {reason}"
        )
        if via is not None:
            message += f" (via '{via}')"
        yield self.finding(fn.module, call, message)
