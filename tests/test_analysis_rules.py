"""Fixture tests for the ``repro.analysis`` rules.

Each rule gets (at least) a seeded violation that must fire, the fixed
form that must stay quiet, and a suppressed variant.  Fixtures are tiny
synthetic modules written into ``tmp_path`` so the tests exercise the
same path-walking, module-naming and suppression machinery the real CLI
uses.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_analysis


def analyse(tmp_path, files, select=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and run the rules."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_analysis([tmp_path], select=select)


def rule_hits(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
LOCKED_COUNTER = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0

        def bump(self):
            with self._lock:
                self.total += 1
    %s
"""


class TestLockDiscipline:
    def test_unguarded_write_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": LOCKED_COUNTER
                % """
        def reset(self):
            self.total = 0
    """
            },
            select=["lock-discipline"],
        )
        (hit,) = rule_hits(report, "lock-discipline")
        assert "self.total" in hit.message
        assert "'reset'" in hit.message

    def test_guarded_write_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": LOCKED_COUNTER
                % """
        def reset(self):
            with self._lock:
                self.total = 0
    """
            },
            select=["lock-discipline"],
        )
        assert report.findings == ()

    def test_init_writes_are_exempt(self, tmp_path):
        report = analyse(
            tmp_path,
            {"svc.py": LOCKED_COUNTER % ""},
            select=["lock-discipline"],
        )
        assert report.findings == ()

    def test_local_lock_variable_counts_as_guard(self, tmp_path):
        # the sharded engine's per-shard pattern: a Lock pulled out of a
        # dict into a local before the with-block
        report = analyse(
            tmp_path,
            {
                "shards.py": """
    import threading

    class Shards:
        def __init__(self):
            self._locks = {}
            self._engines = {}

        def build(self, c):
            lock = self._locks.setdefault(c, threading.Lock())
            with lock:
                self._engines[c] = object()

        def rebuild(self, c):
            with self._locks[c]:
                self._engines[c] = object()
    """
            },
            select=["lock-discipline"],
        )
        assert report.findings == ()

    def test_subscript_and_chained_writes_resolve_to_root_attr(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading

    class Service:
        def __init__(self):
            self._cond = threading.Condition()
            self.stats = object()
            self._cache = {}

        def record(self):
            with self._cond:
                self.stats.queries += 1
                self._cache["x"] = 1

        def sneak(self):
            self._cache["y"] = 2
    """
            },
            select=["lock-discipline"],
        )
        (hit,) = rule_hits(report, "lock-discipline")
        assert "self._cache" in hit.message

    def test_suppression_comment_silences(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": LOCKED_COUNTER
                % """
        def reset(self):
            self.total = 0  # repro: ignore[lock-discipline] -- test-only reset
    """
            },
            select=["lock-discipline"],
        )
        assert report.findings == ()
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "lock-discipline"


# ----------------------------------------------------------------------
# registry-purity
# ----------------------------------------------------------------------
ENGINE_MODULE = """
    class ResistanceEngine:
        pass

    class ExactEngine(ResistanceEngine):
        pass

    def build_engine(graph, method):
        return ExactEngine()
"""


class TestRegistryPurity:
    def test_direct_instantiation_outside_factory_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "engine.py": ENGINE_MODULE,
                "caller.py": """
    from engine import ExactEngine

    def use(graph):
        return ExactEngine()
    """,
            },
            select=["registry-purity"],
        )
        (hit,) = rule_hits(report, "registry-purity")
        assert hit.path.endswith("caller.py")
        assert "ExactEngine" in hit.message

    def test_factory_call_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "engine.py": ENGINE_MODULE,
                "caller.py": """
    from engine import build_engine

    def use(graph, config):
        return build_engine(graph, config)
    """,
            },
            select=["registry-purity"],
        )
        assert report.findings == ()

    def test_factory_module_itself_is_exempt(self, tmp_path):
        # build_engine's own module may instantiate engine classes freely
        report = analyse(
            tmp_path, {"engine.py": ENGINE_MODULE}, select=["registry-purity"]
        )
        assert report.findings == ()

    def test_decorated_registration_counts_as_engine_class(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "engine.py": """
    def register_engine(name, params=()):
        def decorate(cls):
            return cls
        return decorate

    def build_engine(graph, method):
        return None

    @register_engine("fancy")
    class FancyEngine:
        pass
    """,
                "caller.py": """
    from engine import FancyEngine

    def use():
        return FancyEngine()
    """,
            },
            select=["registry-purity"],
        )
        (hit,) = rule_hits(report, "registry-purity")
        assert "FancyEngine" in hit.message

    def test_isinstance_reference_is_not_a_call(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "engine.py": ENGINE_MODULE,
                "caller.py": """
    from engine import ExactEngine

    def check(engine):
        return isinstance(engine, ExactEngine)
    """,
            },
            select=["registry-purity"],
        )
        assert report.findings == ()


# ----------------------------------------------------------------------
# config-persistence-drift
# ----------------------------------------------------------------------
CONFIG_MODULE = """
    from dataclasses import dataclass

    def register_engine(name, params=()):
        def decorate(cls):
            return cls
        return decorate

    @dataclass(frozen=True)
    class EngineConfig:
        method: str = "cholinv"
        epsilon: float = 1e-3
        build_workers: int = 1

    @register_engine("cholinv", params=("epsilon", "build_workers"))
    class CholInv:
        pass
"""


class TestConfigPersistenceDrift:
    def test_save_missing_param_fires(self, tmp_path):
        # the PR-5 incident: a new registered param never written to disk
        report = analyse(
            tmp_path,
            {
                "engine.py": CONFIG_MODULE,
                "persistence.py": """
    from engine import EngineConfig

    def save_engine(engine, path):
        return EngineConfig(method="cholinv", epsilon=engine.epsilon)
    """,
            },
            select=["config-persistence-drift"],
        )
        hits = rule_hits(report, "config-persistence-drift")
        assert any("build_workers" in h.message for h in hits)

    def test_restore_missing_param_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "engine.py": CONFIG_MODULE,
                "persistence.py": """
    from engine import EngineConfig, register_engine

    def save_engine(engine, path):
        return EngineConfig(
            method="cholinv",
            epsilon=engine.epsilon,
            build_workers=engine.build_workers,
        )

    @register_engine("cholinv", params=("epsilon", "build_workers"))
    class CholInv:
        @classmethod
        def from_state(cls, state, config):
            return (config.epsilon,)
    """,
            },
            select=["config-persistence-drift"],
        )
        hits = rule_hits(report, "config-persistence-drift")
        assert any(
            "build_workers" in h.message and "from_state" in h.message for h in hits
        )

    def test_unknown_keyword_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "engine.py": CONFIG_MODULE,
                "persistence.py": """
    from engine import EngineConfig

    def save_engine(engine, path):
        return EngineConfig(
            method="cholinv",
            epsilon=engine.epsilon,
            build_workers=engine.workers,
            epsilom=0.0,
        )
    """,
            },
            select=["config-persistence-drift"],
        )
        hits = rule_hits(report, "config-persistence-drift")
        assert any("epsilom" in h.message for h in hits)

    def test_full_coverage_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "engine.py": CONFIG_MODULE,
                "persistence.py": """
    from engine import EngineConfig, register_engine

    def save_engine(engine, path):
        return EngineConfig(
            method="cholinv",
            epsilon=engine.epsilon,
            build_workers=engine.build_workers,
        )

    @register_engine("cholinv", params=("epsilon", "build_workers"))
    class CholInv:
        @classmethod
        def from_state(cls, state, config):
            return (config.epsilon, config.build_workers)
    """,
            },
            select=["config-persistence-drift"],
        )
        assert report.findings == ()

    def test_second_persisted_method_checked_independently(self, tmp_path):
        # landmark-style second kind: each save call is keyed by its own
        # method= constant and checked against that engine's params only
        report = analyse(
            tmp_path,
            {
                "engine.py": CONFIG_MODULE,
                "persistence.py": """
    from engine import EngineConfig, register_engine

    def save_engine(engine, path):
        if engine.kind == "landmark":
            return EngineConfig(method="landmark", epsilon=engine.epsilon)
        return EngineConfig(
            method="cholinv",
            epsilon=engine.epsilon,
            build_workers=engine.build_workers,
        )

    @register_engine("landmark", params=("epsilon", "build_workers"))
    class Landmark:
        @classmethod
        def from_state(cls, state, config):
            return (config.epsilon,)
    """,
            },
            select=["config-persistence-drift"],
        )
        hits = rule_hits(report, "config-persistence-drift")
        # the landmark save call is missing build_workers...
        assert any(
            "build_workers" in h.message and "'landmark'" in h.message
            for h in hits
        )
        # ...and so is its from_state; the complete cholinv path is quiet
        assert any(
            "build_workers" in h.message and "from_state" in h.message
            for h in hits
        )
        assert not any("'cholinv'" in h.message for h in hits)

    def test_real_tree_currently_has_no_drift(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        report = run_analysis([src], select=["config-persistence-drift"])
        assert report.findings == ()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_legacy_np_random_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    import numpy as np

    def noise(n):
        return np.random.randn(n)
    """
            },
            select=["determinism"],
        )
        (hit,) = rule_hits(report, "determinism")
        assert "np.random.randn" in hit.message

    def test_seedless_default_rng_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    import numpy as np

    def noise(n):
        return np.random.default_rng().normal(size=n)
    """
            },
            select=["determinism"],
        )
        assert len(rule_hits(report, "determinism")) == 1

    def test_seeded_default_rng_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    import numpy as np

    def noise(n, seed):
        return np.random.default_rng(seed).normal(size=n)
    """
            },
            select=["determinism"],
        )
        assert report.findings == ()

    def test_stdlib_random_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    import random

    def pick(items):
        return random.choice(items)
    """
            },
            select=["determinism"],
        )
        assert len(rule_hits(report, "determinism")) == 1

    def test_time_time_fires_only_in_build_dirs(self, tmp_path):
        source = """
    import time

    def stamp():
        return time.time()
    """
        report = analyse(
            tmp_path,
            {"core/factor.py": source, "service/front.py": source},
            select=["determinism"],
        )
        (hit,) = rule_hits(report, "determinism")
        assert hit.path.endswith("core/factor.py")

    def test_perf_counter_is_quiet_everywhere(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "core/factor.py": """
    import time

    def stamp():
        return time.perf_counter()
    """
            },
            select=["determinism"],
        )
        assert report.findings == ()

    def test_suppression_comment_silences(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    import numpy as np

    def noise(n):
        return np.random.randn(n)  # repro: ignore[determinism] -- bench warm-up only
    """
            },
            select=["determinism"],
        )
        assert report.findings == ()
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# boundary-validation
# ----------------------------------------------------------------------
class TestBoundaryValidation:
    def test_unvalidated_public_method_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    class QueryService:
        def query_pairs(self, pairs):
            return self.engine.query_pairs(pairs)
    """
            },
            select=["boundary-validation"],
        )
        (hit,) = rule_hits(report, "boundary-validation")
        assert "query_pairs" in hit.message

    def test_direct_validation_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    from engine import validate_node_ids

    class QueryService:
        def query_pairs(self, pairs):
            validate_node_ids(pairs, self.n)
            return self.engine.query_pairs(pairs)
    """
            },
            select=["boundary-validation"],
        )
        assert report.findings == ()

    def test_delegation_chain_is_credited(self, tmp_path):
        # query -> query_pairs -> submit, only submit validates
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    from engine import validate_node_ids

    class QueryService:
        def query(self, pairs):
            return self.query_pairs(pairs)

        def query_pairs(self, pairs):
            return self.submit(pairs)

        def submit(self, pairs):
            validate_node_ids(pairs, self.n)
            return self.engine.query_pairs(pairs)
    """
            },
            select=["boundary-validation"],
        )
        assert report.findings == ()

    def test_private_methods_and_non_services_are_exempt(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    class QueryService:
        def _query_pairs(self, pairs):
            return self.engine.query_pairs(pairs)

    class QueryHelper:
        def query_pairs(self, pairs):
            return self.engine.query_pairs(pairs)
    """
            },
            select=["boundary-validation"],
        )
        assert report.findings == ()

    def test_methods_without_node_params_are_exempt(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    class StatsService:
        def snapshot(self):
            return dict(self._stats)

        def set_limit(self, limit):
            self._limit = limit
    """
            },
            select=["boundary-validation"],
        )
        assert report.findings == ()


# ----------------------------------------------------------------------
# mutable-default-args
# ----------------------------------------------------------------------
class TestMutableDefaults:
    def test_literal_and_call_defaults_fire(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    def f(xs=[]):
        return xs

    def g(*, cache=dict()):
        return cache
    """
            },
            select=["mutable-default-args"],
        )
        hits = rule_hits(report, "mutable-default-args")
        assert len(hits) == 2
        assert {h.line for h in hits} == {2, 5}

    def test_none_and_immutable_defaults_are_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    def f(xs=None, k=3, name="x", pair=(1, 2)):
        return xs or []
    """
            },
            select=["mutable-default-args"],
        )
        assert report.findings == ()

    def test_suppression_comment_silences(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    def f(xs=[]):  # repro: ignore[mutable-default-args] -- sentinel, never mutated
        return xs
    """
            },
            select=["mutable-default-args"],
        )
        assert report.findings == ()
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# atomicity
# ----------------------------------------------------------------------
class TestAtomicity:
    def test_unlocked_read_of_guarded_attr_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": LOCKED_COUNTER
                % """
        def peek(self):
            return self.total
    """
            },
            select=["atomicity"],
        )
        (hit,) = rule_hits(report, "atomicity")
        assert "self.total" in hit.message
        assert "'peek'" in hit.message
        assert "reads it without" in hit.message

    def test_locked_read_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": LOCKED_COUNTER
                % """
        def peek(self):
            with self._lock:
                return self.total
    """
            },
            select=["atomicity"],
        )
        assert report.findings == ()

    def test_init_reads_are_exempt(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0
            self.double = self.total * 2

        def bump(self):
            with self._lock:
                self.total += 1
    """
            },
            select=["atomicity"],
        )
        assert report.findings == ()

    def test_never_locked_attr_is_quiet(self, tmp_path):
        # reads of attributes nobody ever writes under a lock are fine
        report = analyse(
            tmp_path,
            {
                "svc.py": LOCKED_COUNTER
                % """
        def name(self):
            return self.label
    """
            },
            select=["atomicity"],
        )
        assert report.findings == ()

    def test_suppression_comment_silences(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": LOCKED_COUNTER
                % """
        def peek(self):
            return self.total  # repro: ignore[atomicity] -- monitoring snapshot
    """
            },
            select=["atomicity"],
        )
        assert report.findings == ()
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "atomicity"


# ----------------------------------------------------------------------
# blocking-under-lock
# ----------------------------------------------------------------------
class TestBlockingUnderLock:
    def test_future_result_under_lock_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading

    class Service:
        def __init__(self):
            self._lock = threading.Lock()

        def drain(self, future):
            with self._lock:
                return future.result()
    """
            },
            select=["blocking-under-lock"],
        )
        (hit,) = rule_hits(report, "blocking-under-lock")
        assert "waits on a Future" in hit.message
        assert "'svc.Service._lock'" in hit.message

    def test_build_engine_under_lock_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading
    from engine import build_engine

    class Service:
        def __init__(self, graph):
            self._lock = threading.Lock()
            self.graph = graph

        def refresh(self):
            with self._lock:
                self.engine = build_engine(self.graph)
    """
            },
            select=["blocking-under-lock"],
        )
        hits = rule_hits(report, "blocking-under-lock")
        assert any("engine factorisation 'build_engine()'" in h.message for h in hits)

    def test_blocking_reached_through_call_graph_fires(self, tmp_path):
        # the lock-holding frame never blocks itself; a callee does
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading
    from engine import build_engine

    class Service:
        def __init__(self, graph):
            self._lock = threading.Lock()
            self.graph = graph

        def _rebuild(self):
            return build_engine(self.graph)

        def refresh(self):
            with self._lock:
                self.engine = self._rebuild()
    """
            },
            select=["blocking-under-lock"],
        )
        hits = rule_hits(report, "blocking-under-lock")
        assert any("(via 'svc.Service._rebuild')" in h.message for h in hits)

    def test_build_outside_lock_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading
    from engine import build_engine

    class Service:
        def __init__(self, graph):
            self._lock = threading.Lock()
            self.graph = graph

        def refresh(self):
            engine = build_engine(self.graph)
            with self._lock:
                self.engine = engine
    """
            },
            select=["blocking-under-lock"],
        )
        assert report.findings == ()

    def test_condition_wait_is_exempt(self, tmp_path):
        # Condition.wait releases the lock it runs under
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading

    class Queue:
        def __init__(self):
            self._cond = threading.Condition()
            self._items = []

        def take(self):
            with self._cond:
                while not self._items:
                    self._cond.wait()
                return self._items.pop()
    """
            },
            select=["blocking-under-lock"],
        )
        assert report.findings == ()

    def test_suppression_comment_silences(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading
    from engine import build_engine

    class Service:
        def __init__(self, graph):
            self._build_lock = threading.Lock()
            self.graph = graph

        def refresh(self):
            with self._build_lock:
                self.engine = build_engine(self.graph)  # repro: ignore[blocking-under-lock] -- _build_lock exists to serialise builds
    """
            },
            select=["blocking-under-lock"],
        )
        assert report.findings == ()
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# executor-escape
# ----------------------------------------------------------------------
class TestExecutorEscape:
    def test_nested_def_payload_mutating_self_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    class Service:
        def __init__(self, pool):
            self._pool = pool
            self.results = []

        def fan_out(self, items):
            def work(item):
                self.results.append(item)
            for item in items:
                self._pool.submit(work, item)
    """
            },
            select=["executor-escape"],
        )
        (hit,) = rule_hits(report, "executor-escape")
        assert "'work'" in hit.message
        assert "self.results" in hit.message
        assert "escapes the executor boundary" in hit.message

    def test_lambda_mutating_closure_fires(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    def fan_out(pool, items):
        results = []
        for item in items:
            pool.submit(lambda: results.append(item))
        return results
    """
            },
            select=["executor-escape"],
        )
        (hit,) = rule_hits(report, "executor-escape")
        assert "closed-over 'results'" in hit.message

    def test_locked_mutation_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading

    class Service:
        def __init__(self, pool):
            self._pool = pool
            self._lock = threading.Lock()
            self.results = []

        def fan_out(self, items):
            def work(item):
                with self._lock:
                    self.results.append(item)
            for item in items:
                self._pool.submit(work, item)
    """
            },
            select=["executor-escape"],
        )
        assert report.findings == ()

    def test_pure_payload_is_quiet(self, tmp_path):
        # the repo's own idiom: workers return, the submitter commits
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    class Service:
        def __init__(self, pool):
            self._pool = pool
            self.results = {}

        def fan_out(self, items):
            def work(item):
                return item * 2
            futures = [self._pool.submit(work, item) for item in items]
            for item, future in zip(items, futures):
                self.results[item] = future.result()
    """
            },
            select=["executor-escape"],
        )
        assert report.findings == ()

    def test_self_method_payload_expands_transitively(self, tmp_path):
        # self.method handed to the pool; the mutation hides one call deeper
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    class Service:
        def __init__(self, pool):
            self._pool = pool
            self.done = []

        def _record(self, item):
            self.done.append(item)

        def _work(self, item):
            self._record(item)

        def fan_out(self, items):
            for item in items:
                self._pool.submit(self._work, item)
    """
            },
            select=["executor-escape"],
        )
        (hit,) = rule_hits(report, "executor-escape")
        assert "'self._work'" in hit.message
        assert "self.done" in hit.message

    def test_thread_target_counts_as_submission(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading

    class Service:
        def __init__(self):
            self.log = []

        def start(self):
            def loop():
                self.log.append("tick")
            threading.Thread(target=loop, daemon=True).start()
    """
            },
            select=["executor-escape"],
        )
        (hit,) = rule_hits(report, "executor-escape")
        assert "Thread(target=...)" in hit.message

    def test_suppression_comment_silences(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    class Service:
        def __init__(self, pool):
            self._pool = pool
            self.results = [None] * 8

        def fan_out(self, items):
            def work(i, item):
                self.results[i] = item  # repro: ignore[executor-escape] -- disjoint slots per worker
            for i, item in enumerate(items):
                self._pool.submit(work, i, item)
    """
            },
            select=["executor-escape"],
        )
        assert report.findings == ()
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# lock-order
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_opposite_nesting_orders_fire(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading

    class Pair:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def ab(self):
            with self._a:
                with self._b:
                    pass

        def ba(self):
            with self._b:
                with self._a:
                    pass
    """
            },
            select=["lock-order"],
        )
        (hit,) = rule_hits(report, "lock-order")
        assert "lock acquisition cycle (potential deadlock)" in hit.message
        assert "svc.Pair._a" in hit.message
        assert "svc.Pair._b" in hit.message

    def test_consistent_order_is_quiet(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "svc.py": """
    import threading

    class Pair:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def ab(self):
            with self._a:
                with self._b:
                    pass

        def also_ab(self):
            with self._a:
                with self._b:
                    pass
    """
            },
            select=["lock-order"],
        )
        assert report.findings == ()

    def test_cross_class_cycle_through_calls_fires(self, tmp_path):
        # neither class nests two with-blocks; the cycle only exists
        # because each calls into the other while holding its own lock
        report = analyse(
            tmp_path,
            {
                "duo.py": """
    import threading

    class Left:
        def __init__(self, right):
            self._left_lock = threading.Lock()
            self.right: "Right" = right

        def forward(self):
            with self._left_lock:
                self.right.poke()

        def poke(self):
            with self._left_lock:
                pass

    class Right:
        def __init__(self, left):
            self._right_lock = threading.Lock()
            self.left: "Left" = left

        def backward(self):
            with self._right_lock:
                self.left.poke()

        def poke(self):
            with self._right_lock:
                pass
    """
            },
            select=["lock-order"],
        )
        (hit,) = rule_hits(report, "lock-order")
        assert "duo.Left._left_lock" in hit.message
        assert "duo.Right._right_lock" in hit.message

    def test_real_tree_is_acyclic(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        report = run_analysis([src], select=["lock-order"])
        assert report.findings == ()


# ----------------------------------------------------------------------
# cross-cutting framework behaviour
# ----------------------------------------------------------------------
class TestFramework:
    def test_bare_ignore_suppresses_every_rule(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "mod.py": """
    def f(xs=[]):  # repro: ignore
        return xs
    """
            },
            select=["mutable-default-args"],
        )
        assert report.findings == ()
        assert len(report.suppressed) == 1

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        report = analyse(tmp_path, {"broken.py": "def f(:\n"})
        (hit,) = report.findings
        assert hit.rule == "parse-error"
        assert hit.severity == "error"

    def test_unknown_select_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no-such-rule"):
            analyse(tmp_path, {"mod.py": "x = 1\n"}, select=["no-such-rule"])

    def test_findings_are_sorted_and_deduplicated(self, tmp_path):
        report = analyse(
            tmp_path,
            {
                "a.py": "def f(xs=[]):\n    return xs\n",
                "b.py": "def g(ys=[]):\n    return ys\n",
            },
            select=["mutable-default-args"],
        )
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)
        assert len(set(report.findings)) == len(report.findings)
