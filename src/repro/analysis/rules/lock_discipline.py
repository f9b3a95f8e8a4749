"""Rule ``lock-discipline`` — once locked, always locked.

The concurrent layers (``service/resistance_service.py``,
``service/async_service.py``) follow one convention: instance state that is
ever mutated under a lock is *only* mutated under a lock.  The service's
epoch fencing depends on it, and the ROADMAP's ``ProcessExecutor`` work
will touch exactly this code — so the
convention is enforced structurally:

    for every class, any attribute assigned (``self.x = …``,
    ``self.x[i] = …``, ``self.x += …``) inside a ``with`` block whose
    context manager looks like a lock must never be assigned outside such
    a block in the same class — except in ``__init__``, where the object
    is not yet shared.

"Looks like a lock" means the ``with`` expression is a name, attribute or
subscript whose final identifier contains ``lock``, ``mutex``, ``guard``
or ``cond`` (case-insensitive): ``with self._lock:``, ``with
self._locks_guard:``, ``with lock:`` (a lock pulled out of a dict),
``with self._locks[c]:``, ``with self._cond:``.
Constructor *helpers* (e.g. a ``_init_state`` called only from
``__init__``) are not recognised — mark those lines with
``# repro: ignore[lock-discipline]`` and a reason, which is exactly the
kind of load-bearing comment the convention wants written down.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import Finding, ModuleInfo, Rule, register_rule
from repro.analysis.model import SelfAccess, scan_self_accesses


@register_rule
class LockDisciplineRule(Rule):
    rule_id = "lock-discipline"
    severity = "error"
    description = (
        "attributes ever written under a lock must always be written "
        "under one (outside __init__)"
    )

    def check_module(self, module: ModuleInfo) -> "Iterable[Finding]":
        findings: "list[Finding]" = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            writes: "list[SelfAccess]" = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    writes.extend(scan_self_accesses(item)[0])
            guarded = {w.attr for w in writes if w.locked}
            for write in writes:
                if (
                    write.attr in guarded
                    and not write.locked
                    and write.method != "__init__"
                ):
                    findings.append(
                        self.finding(
                            module,
                            write.node,
                            f"attribute 'self.{write.attr}' is written under "
                            f"a lock elsewhere in class '{node.name}' but "
                            f"method '{write.method}' writes it without "
                            f"holding one",
                        )
                    )
        return findings
