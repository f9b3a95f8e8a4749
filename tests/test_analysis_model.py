"""The shared project model and the lock-order graph.

Two kinds of coverage live here:

* a **self-check** that the model's lock inventory is complete against
  the real tree — an independent (and deliberately dumber) AST walk
  collects every ``threading.Lock``/``RLock``/``Condition`` attribute
  assigned anywhere under ``src/repro`` and asserts the model discovered
  each one, so a new lock idiom the model misses fails CI instead of
  silently escaping every concurrency pass;
* a synthetic **two-class deadlock** fixture driven through the full
  stack (``load_project`` → ``build_model`` → ``build_lock_graph``) with
  golden DOT output, cycle extraction and ``cycle_findings``.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.framework import load_project
from repro.analysis.lockgraph import (
    build_lock_graph,
    cycle_findings,
    export_lock_graph,
)
from repro.analysis.model import LOCK_CTORS, build_model

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
DATA = Path(__file__).resolve().parent / "data"


# ----------------------------------------------------------------------
# lock-inventory completeness against the real tree
# ----------------------------------------------------------------------
def _ctor_kind(expr: ast.expr) -> "str | None":
    """``threading.Lock()``-style constructor call → its kind."""
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return LOCK_CTORS.get(name) if name is not None else None


def _expected_class_locks() -> "set[tuple[str, str]]":
    """(class name, attr) of every lock assigned anywhere in ``src/repro``.

    An independent walk, kept intentionally simpler than the model's:
    ``self.X = threading.Lock()`` in any method, dataclass fields with
    ``default_factory=threading.Lock``, and per-key locks created with
    ``d.setdefault(k, threading.Lock())``.
    """
    found: "set[tuple[str, str]]" = set()
    for file in sorted(SRC.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                # self.X = threading.Lock()  (also annotated form)
                targets = []
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if _ctor_kind(value) is None:
                    # d.setdefault(key, threading.Lock()) → keyed lock in d
                    if (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Attribute)
                        and value.func.attr == "setdefault"
                        and len(value.args) == 2
                        and _ctor_kind(value.args[1]) is not None
                    ):
                        container = value.func.value
                        if (
                            isinstance(container, ast.Attribute)
                            and isinstance(container.value, ast.Name)
                            and container.value.id == "self"
                        ):
                            found.add((cls.name, container.attr))
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        found.add((cls.name, target.attr))
            # X: Lock = field(default_factory=threading.Lock)
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and isinstance(stmt.value, ast.Call)
                ):
                    for kw in stmt.value.keywords:
                        if kw.arg == "default_factory" and (
                            getattr(kw.value, "attr", None) in LOCK_CTORS
                            or getattr(kw.value, "id", None) in LOCK_CTORS
                        ):
                            found.add((cls.name, stmt.target.id))
    return found


class TestLockInventory:
    @pytest.fixture(scope="class")
    def model(self):
        project, errors = load_project([SRC])
        assert errors == []
        return build_model(project)

    def test_real_tree_has_locks_to_find(self):
        # guards the self-check itself against a refactor that moves the
        # concurrency surface: if this drops to zero the walk is broken
        assert len(_expected_class_locks()) >= 7

    def test_model_inventory_is_complete(self, model):
        inventory = {
            (info.name, attr)
            for info in model.classes.values()
            for attr in info.locks
        }
        missing = _expected_class_locks() - inventory
        assert missing == set(), (
            f"locks assigned in src/repro but absent from the model "
            f"inventory (the concurrency passes cannot see them): "
            f"{sorted(missing)}"
        )

    def test_module_level_locks_are_discovered(self, model):
        # the analysis package's own model cache lock is module-level
        assert any(
            qual.endswith("._model_cache_lock") for qual in model.module_locks
        )

    def test_real_lock_graph_is_acyclic_and_nonempty(self, model):
        graph = build_lock_graph(model)
        assert graph.cycles() == []
        assert len(graph.edges) >= 5  # the tree genuinely nests locks

    def test_partitioned_engine_owns_no_lock(self, tmp_path):
        # a PartitionedEngine is fully built by its constructor and only
        # read afterwards, so it needs no lock of its own
        export_lock_graph([SRC], json_path=str(tmp_path / "locks.json"))
        payload = json.loads((tmp_path / "locks.json").read_text(encoding="utf-8"))
        assert payload["nodes"], "the exported graph is empty"
        owners = {node["owner"] for node in payload["nodes"]}
        assert not [o for o in owners if o.endswith(".PartitionedEngine")], owners


# ----------------------------------------------------------------------
# synthetic two-class deadlock, end to end
# ----------------------------------------------------------------------
#: Neither class nests two ``with`` blocks; the cycle only exists because
#: each calls into the other while holding its own lock.
DEADLOCK_SRC = textwrap.dedent(
    """
import threading

class Producer:
    def __init__(self, consumer):
        self._queue_lock = threading.Lock()
        self.consumer: "Consumer" = consumer

    def push(self):
        with self._queue_lock:
            self.consumer.ack()

    def ack(self):
        with self._queue_lock:
            pass

class Consumer:
    def __init__(self, producer):
        self._state_lock = threading.Lock()
        self.producer: "Producer" = producer

    def pull(self):
        with self._state_lock:
            self.producer.ack()

    def ack(self):
        with self._state_lock:
            pass
"""
)


class TestDeadlockFixture:
    @pytest.fixture()
    def graph(self, tmp_path):
        (tmp_path / "deadlock.py").write_text(DEADLOCK_SRC, encoding="utf-8")
        project, errors = load_project([tmp_path])
        assert errors == []
        return build_lock_graph(build_model(project))

    def test_dot_matches_golden(self, graph):
        golden = (DATA / "lock_order_deadlock.dot").read_text(encoding="utf-8")
        assert graph.to_dot() == golden

    def test_cycle_is_detected(self, graph):
        (cycle,) = graph.cycles()
        assert {lock.label for lock in cycle} == {
            "deadlock.Producer._queue_lock",
            "deadlock.Consumer._state_lock",
        }

    def test_cycle_findings_name_both_locks_and_a_witness(self, graph):
        (finding,) = cycle_findings(graph, "lock-order")
        assert finding.rule == "lock-order"
        assert "potential deadlock" in finding.message
        assert "deadlock.Producer._queue_lock" in finding.message
        assert "deadlock.Consumer._state_lock" in finding.message
        assert "one witness is" in finding.message

    def test_json_export_reports_the_cycle(self, graph):
        payload = json.loads(graph.to_json())
        assert payload["version"] == 1
        (cycle,) = payload["cycles"]
        assert set(cycle) == {
            "deadlock.Producer._queue_lock",
            "deadlock.Consumer._state_lock",
        }
        assert all(e["witnesses"] for e in payload["edges"])
