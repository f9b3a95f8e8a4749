"""Core of the ``repro.analysis`` invariant checker.

The serving stack that PRs 3–5 grew (registry-built engines, per-shard
build locks, thread-pooled Alg. 2 levels, locked result tables, async
micro-batching) is held together by *structural* invariants — "engine
state is only mutated under a lock", "engines are constructed through the
registry", "every persisted config field round-trips" — that unit tests
only probe pointwise.  This module is the frame for proving them on every
commit, the same philosophy as PEERS' augmented symbolic analysis: a
structural pass that runs before (and independently of) the numeric one.

Pieces
------
:class:`Finding`
    One violation at a source location; ordered, hashable, and carrying a
    line-number-independent :meth:`Finding.key` for baseline matching.
:class:`ModuleInfo` / :class:`Project`
    A parsed source file (AST + ``# repro: ignore[...]`` suppression map)
    and the set of all parsed files.  Rules that need cross-file context
    (registry purity, config↔persistence drift) see the whole project.
:class:`Rule` / :func:`register_rule`
    The rule protocol and its registry — the same register-and-dispatch
    idiom as :mod:`repro.core.engine`.  A rule implements
    :meth:`Rule.check_module` (per file), :meth:`Rule.check_project`
    (whole tree), or both.
:func:`run_analysis`
    Parse, run every (selected) rule, apply suppressions, and return an
    :class:`AnalysisReport`.

Suppressions
------------
A ``# repro: ignore[rule-id]`` comment on the *same line* as a finding
suppresses it; ``# repro: ignore[a, b]`` suppresses several rules and a
bare ``# repro: ignore`` suppresses everything on that line.  Suppressed
findings are still reported (counted separately) so they never silently
rot.  Pre-existing findings that are not worth an inline marker belong in
the committed baseline instead (:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import abc
import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Rule id used for files that fail to parse at all.
PARSE_ERROR_RULE = "parse-error"

_IGNORE_RE = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Field order matters: sorting a list of findings orders them by file,
    then line, then column, then rule id — the order every reporter uses.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def key(self) -> "tuple[str, str, str]":
        """Line-independent identity ``(rule, path, message)``.

        Baselines match on this key so an unrelated edit that shifts line
        numbers does not resurrect a baselined finding.
        """
        return (self.rule, self.path, self.message)


def parse_suppressions(source: str) -> "dict[int, frozenset[str]]":
    """Map line number → rule ids suppressed by ``# repro: ignore[...]``.

    A bare ``# repro: ignore`` yields the wildcard entry ``{"*"}``.
    Tokenisation errors (only possible on files that already failed to
    parse) simply yield no suppressions.
    """
    out: "dict[int, set[str]]" = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _IGNORE_RE.search(tok.string)
            if match is None:
                continue
            spec = match.group("rules")
            if spec is None:
                ids = {"*"}
            else:
                ids = {part.strip() for part in spec.split(",") if part.strip()}
                ids = ids or {"*"}
            out.setdefault(tok.start[0], set()).update(ids)
    except tokenize.TokenError:
        pass
    return {line: frozenset(ids) for line, ids in out.items()}


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file plus everything rules need to judge it."""

    path: Path
    rel: str
    module: str
    source: str
    tree: ast.Module
    suppressions: "dict[int, frozenset[str]]"

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``# repro: ignore`` on ``line`` covers ``rule_id``."""
        ids = self.suppressions.get(line)
        return ids is not None and (rule_id in ids or "*" in ids)

    @property
    def dotted_parts(self) -> "tuple[str, ...]":
        """Components of the module's dotted name (``core.engine`` → 2)."""
        return tuple(self.module.split("."))


@dataclass(frozen=True)
class Project:
    """Every parsed module of one analysis run, for cross-file rules."""

    modules: "tuple[ModuleInfo, ...]"

    def __iter__(self) -> "Iterator[ModuleInfo]":
        return iter(self.modules)


class Rule(abc.ABC):
    """A structural invariant, checked per module and/or per project.

    Subclasses set :attr:`rule_id` (kebab-case, stable — it appears in
    suppression comments and baselines), :attr:`severity` (``"error"``
    findings fail the run, ``"warning"`` findings are reported only) and
    :attr:`description`, then implement :meth:`check_module`,
    :meth:`check_project`, or both.  Register with
    :func:`register_rule` so the CLI and ``--select`` can find the rule.
    """

    rule_id: str = ""
    severity: str = "error"
    description: str = ""

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` in ``module``."""
        return Finding(
            path=module.rel,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule=self.rule_id,
            severity=self.severity,
            message=message,
        )

    def check_module(self, module: ModuleInfo) -> "Iterable[Finding]":
        """Findings visible from one file alone (default: none)."""
        return ()

    def check_project(self, project: Project) -> "Iterable[Finding]":
        """Findings that need the whole parsed tree (default: none)."""
        return ()


_RULES: "dict[str, type[Rule]]" = {}
_builtin_rules_loaded = False


def register_rule(cls: "type[Rule]") -> "type[Rule]":
    """Class decorator adding a rule to the registry under its rule id."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set a non-empty rule_id")
    if cls.severity not in ("error", "warning"):
        raise ValueError(
            f"{cls.__name__}.severity must be 'error' or 'warning', "
            f"got {cls.severity!r}"
        )
    _RULES[cls.rule_id] = cls
    return cls


def _ensure_builtin_rules() -> None:
    """Import the package whose modules self-register (idempotent)."""
    global _builtin_rules_loaded
    if _builtin_rules_loaded:
        return
    import repro.analysis.rules  # noqa: F401

    _builtin_rules_loaded = True


def registered_rules() -> "dict[str, type[Rule]]":
    """Registered rules keyed by rule id (a copy; mutate freely)."""
    _ensure_builtin_rules()
    return dict(_RULES)


def _iter_python_files(path: Path) -> "Iterator[Path]":
    if path.is_file():
        yield path
        return
    yield from sorted(path.rglob("*.py"))


def load_project(
    paths: "Sequence[str | Path]",
) -> "tuple[Project, list[Finding]]":
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`.

    Directories are walked recursively; module dotted names are relative
    to the scanned root, so scanning ``src/repro`` yields ``core.engine``
    etc.  Files that fail to parse become :data:`PARSE_ERROR_RULE`
    findings instead of modules (returned separately).
    """
    modules: "list[ModuleInfo]" = []
    errors: "list[Finding]" = []
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise FileNotFoundError(f"no such file or directory: {root}")
        base = root if root.is_dir() else root.parent
        for file in _iter_python_files(root):
            rel = file.as_posix()
            module_name = ".".join(file.relative_to(base).with_suffix("").parts)
            source = file.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(file))
            except SyntaxError as exc:
                errors.append(
                    Finding(
                        path=rel,
                        line=int(exc.lineno or 1),
                        col=max(int(exc.offset or 1) - 1, 0),
                        rule=PARSE_ERROR_RULE,
                        severity="error",
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            modules.append(
                ModuleInfo(
                    path=file,
                    rel=rel,
                    module=module_name,
                    source=source,
                    tree=tree,
                    suppressions=parse_suppressions(source),
                )
            )
    return Project(tuple(modules)), errors


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of one :func:`run_analysis` call."""

    findings: "tuple[Finding, ...]"
    suppressed: "tuple[Finding, ...]"

    @property
    def errors(self) -> "tuple[Finding, ...]":
        """Active findings with severity ``error`` (these fail a run)."""
        return tuple(f for f in self.findings if f.severity == "error")


def run_analysis(
    paths: "Sequence[str | Path]",
    select: "Sequence[str] | None" = None,
) -> AnalysisReport:
    """Run every (selected) registered rule over ``paths``.

    Returns active findings and the findings silenced by inline
    ``# repro: ignore`` comments, both sorted by location.  Baseline
    filtering is a separate, caller-side step
    (:func:`repro.analysis.baseline.partition`) so library callers always
    see the full picture.
    """
    project, parse_errors = load_project(paths)
    rules = registered_rules()
    if select is not None:
        chosen = set(select)
        unknown = sorted(chosen - set(rules))
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {unknown}; registered: {sorted(rules)}"
            )
        rules = {rid: cls for rid, cls in rules.items() if rid in chosen}
    raw: "list[Finding]" = list(parse_errors)
    for rule_cls in rules.values():
        rule = rule_cls()
        for module in project.modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(project))
    by_rel = {module.rel: module for module in project.modules}
    active: "list[Finding]" = []
    suppressed: "list[Finding]" = []
    for finding in sorted(set(raw)):
        module = by_rel.get(finding.path)
        if module is not None and module.is_suppressed(finding.rule, finding.line):
            suppressed.append(finding)
        else:
            active.append(finding)
    return AnalysisReport(tuple(active), tuple(suppressed))
