"""Effective-resistance engines — Alg. 3 and the exact reference.

The public entry points are:

* :class:`CholInvEffectiveResistance` — the paper's Alg. 3: incomplete
  Cholesky of the grounded Laplacian, Alg. 2 approximate inverse, then each
  query answered as ``R(p,q) ≈ ‖z̃_p − z̃_q‖²`` (Eq. 22);
* :class:`ExactEffectiveResistance` — factor the grounded Laplacian once
  as SPD (:func:`repro.linalg.spd.spd_factor`: symmetric-mode SuperLU on a
  minimum-degree ordering, the sparse Cholesky factor the paper's Eq. 7
  builds on), then answer each query with a direct solve:
  ``R(p,q) = (e_p − e_q)ᵀ L_G⁻¹ (e_p − e_q)`` (Eq. 3) — exact for the
  grounded SDD matrix, which equals the pseudo-inverse value within
  connected components;
* :func:`effective_resistances` — one-shot convenience dispatcher;
* :func:`spanning_edge_centrality` — the WWW'15 application: the centrality
  of edge ``e`` is ``w(e)·R(e)``, the probability that ``e`` appears in a
  random spanning tree.

Both engines implement the :class:`~repro.core.engine.ResistanceEngine`
protocol and are registered with the engine registry
(:mod:`repro.core.engine`), share the grounding logic, and return ``inf``
for queries that span different connected components (the physical answer:
no current path).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.cholesky.depth import filled_graph_depth
from repro.cholesky.incomplete import ichol
from repro.cholesky.ordering import compute_ordering
from repro.core.approx_inverse import ApproxInverseStats, approximate_inverses
from repro.core.engine import (
    EngineConfig,
    ResistanceEngine,
    as_pair_columns,
    build_engine,
    engine_params,
    register_engine,
)
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.laplacian import component_ground_nodes, grounded_laplacian
from repro.linalg.sparse_utils import column_pair_dots
from repro.linalg.spd import spd_factor
from repro.utils.timing import Timer
from repro.utils.validation import require

_SOLVE_CHUNK = 64


@register_engine("exact", params=("ground_value",))
class ExactEffectiveResistance(ResistanceEngine):
    """Exact effective resistances via one sparse SPD factorisation (Eq. 3).

    The grounded Laplacian is SPD (one ground node per connected component,
    positive weights), so :func:`~repro.linalg.spd.spd_factor` factors it
    without pivoting; queries are solved 64 right-hand sides at a time.

    Parameters
    ----------
    graph:
        Weighted undirected graph.
    ground_value:
        Diagonal grounding conductance; defaults to the mean edge weight.
        Any positive value gives the same (exact) within-component answers.
    """

    def __init__(self, graph: Graph, ground_value: "float | None" = None):
        self.graph = graph
        self.timer = Timer()
        if ground_value is None:
            ground_value = float(graph.weights.mean()) if graph.num_edges else 1.0
        self.ground_value = ground_value
        self.component_labels, _ = connected_components(graph)
        with self.timer.section("factorize"):
            matrix, self.ground_nodes = grounded_laplacian(
                graph, ground_value, ground_nodes=component_ground_nodes(self.component_labels)
            )
            self._solver = spd_factor(matrix)
        self.n = graph.num_nodes

    def query_pairs(self, pairs) -> np.ndarray:
        """Effective resistances for an ``(m, 2)`` array of node pairs."""
        ps, qs = as_pair_columns(pairs)
        out = np.empty(ps.shape[0])
        with self.timer.section("queries"):
            for start in range(0, ps.shape[0], _SOLVE_CHUNK):
                stop = min(start + _SOLVE_CHUNK, ps.shape[0])
                block_p = ps[start:stop]
                block_q = qs[start:stop]
                rhs = np.zeros((self.n, stop - start))
                cols = np.arange(stop - start)
                rhs[block_p, cols] += 1.0
                rhs[block_q, cols] -= 1.0
                x = self._solver.solve(rhs)
                out[start:stop] = x[block_p, cols] - x[block_q, cols]
        same = self.component_labels[ps] == self.component_labels[qs]
        out[~same] = np.inf
        out[ps == qs] = 0.0
        return out


@register_engine(
    "cholinv",
    params=("epsilon", "drop_tol", "ordering", "ground_value",
            "small_column_threshold", "mode", "build_workers"),
)
class CholInvEffectiveResistance(ResistanceEngine):
    """Alg. 3 — effective resistances from the approximate inverse factor.

    Parameters
    ----------
    graph:
        Weighted undirected graph ``G``.
    epsilon:
        Alg. 2 truncation budget ``ε`` (paper default 1e-3).
    drop_tol:
        Incomplete-Cholesky drop tolerance (paper default 1e-3).
        ``drop_tol = 0`` uses the complete factor.
    ordering:
        Fill-reducing ordering: ``"amd"`` (default, matches the quality the
        paper's CHOLMOD setup implies), ``"rcm"`` or ``"natural"``.
    ground_value:
        Diagonal grounding conductance (default: mean edge weight).
    small_column_threshold:
        Alg. 2 line 3 threshold (default ``log n``).
    mode:
        Alg. 2 kernel: ``"blocked"`` (default, level-scheduled batched
        kernel) or ``"reference"`` (the original column-at-a-time loop).
        Both produce the same ``Z̃``; see
        :mod:`repro.core.approx_inverse`.
    build_workers:
        Threads for the level-parallel blocked kernel (default 1).  The
        resulting ``Z̃`` is bit-identical for every worker count; the knob
        only trades build wall-clock.
    perm:
        Precomputed fill-reducing permutation to factor on instead of
        computing ``ordering`` (:meth:`rebuilt` passes the predecessor's
        when an edit leaves the sparsity pattern unchanged).

    Attributes
    ----------
    z_tilde:
        The sparse approximate inverse ``Z̃ ≈ L⁻¹`` (in permuted order).
    stats:
        :class:`~repro.core.approx_inverse.ApproxInverseStats` of the run.
    timer:
        Stage timings (``ordering`` / ``ichol`` / ``approx_inverse`` /
        ``queries``); ``ichol`` includes the grounded-Laplacian assembly,
        and ``ordering`` is near zero on an engine built on a given
        ``perm``.
    reused_ordering:
        Whether the engine was built on a given ``perm``.
    """

    def __init__(
        self,
        graph: Graph,
        epsilon: float = 1e-3,
        drop_tol: float = 1e-3,
        ordering: str = "amd",
        ground_value: "float | None" = None,
        small_column_threshold: "float | None" = None,
        mode: str = "blocked",
        build_workers: int = 1,
        perm: "np.ndarray | None" = None,
    ):
        self._factorize(
            graph, epsilon, drop_tol, ordering, ground_value,
            small_column_threshold, mode, build_workers, perm,
        )
        self._invert([self])

    @classmethod
    def build_many(
        cls, graphs: "Sequence[Graph]", **params: Any
    ) -> "list[CholInvEffectiveResistance]":
        """One engine per graph, with one Alg. 2 sweep for all of them.

        Each graph gets its own grounded Laplacian, ordering and ICT
        factor, exactly as the constructor builds them; then
        :func:`~repro.core.approx_inverse.approximate_inverses` runs the
        level sweep over all the factors at once.  Every engine equals
        ``cls(graph, **params)`` bit for bit, except that its
        ``approx_inverse`` timing is its node-count share of the shared
        sweep.
        """
        engines = []
        for graph in graphs:
            engine = cls.__new__(cls)
            engine._factorize(graph, **params)
            engines.append(engine)
        cls._invert(engines)
        return engines

    def _factorize(
        self,
        graph: Graph,
        epsilon: float = 1e-3,
        drop_tol: float = 1e-3,
        ordering: str = "amd",
        ground_value: "float | None" = None,
        small_column_threshold: "float | None" = None,
        mode: str = "blocked",
        build_workers: int = 1,
        perm: "np.ndarray | None" = None,
    ) -> None:
        """Every build stage up to and including the ICT factor."""
        self.graph = graph
        self.epsilon = epsilon
        self.drop_tol = drop_tol
        self.ordering = ordering
        self.small_column_threshold = small_column_threshold
        self.mode = mode
        self.build_workers = build_workers
        self.timer = Timer()
        # keep the caller's setting (None = recompute from the graph) apart
        # from the resolved value: persistence must round-trip the former so
        # a warm-started service regrounds on refresh exactly like a cold one
        self.requested_ground_value = ground_value
        if ground_value is None:
            ground_value = float(graph.weights.mean()) if graph.num_edges else 1.0
        self.ground_value = ground_value
        self.component_labels, _ = connected_components(graph)

        self.reused_ordering = perm is not None
        with self.timer.section("ichol"):
            matrix, self.ground_nodes = grounded_laplacian(
                graph, ground_value, ground_nodes=component_ground_nodes(self.component_labels)
            )
        with self.timer.section("ordering"):
            if perm is None:
                perm = compute_ordering(matrix, method=ordering)
        with self.timer.section("ichol"):
            self.ichol_result = ichol(matrix, drop_tol=drop_tol, perm=perm)
        self.n = graph.num_nodes

    @staticmethod
    def _invert(engines: "list[CholInvEffectiveResistance]") -> None:
        """Alg. 2 over the factors of ``engines`` (built with the same
        params) in one level sweep, split by node count in the timings."""
        if not engines:
            return
        first = engines[0]
        start = time.perf_counter()
        results = approximate_inverses(
            [engine.ichol_result.lower for engine in engines],
            epsilon=first.epsilon,
            small_column_threshold=first.small_column_threshold,
            mode=first.mode,
            build_workers=first.build_workers,
        )
        elapsed = time.perf_counter() - start
        total_nodes = max(sum(engine.n for engine in engines), 1)
        for engine, (z_tilde, stats) in zip(engines, results):
            engine.timer.add("approx_inverse", elapsed * engine.n / total_nodes)
            engine.z_tilde, engine.stats = z_tilde, stats
            engine.perm = engine.ichol_result.perm
            engine._position = np.empty_like(engine.perm)
            engine._position[engine.perm] = np.arange(engine.perm.shape[0])
            squared = z_tilde.multiply(z_tilde)
            engine._column_sq_norms = np.asarray(squared.sum(axis=0)).ravel()
            engine._z_finite = bool(np.isfinite(engine._column_sq_norms).all())

    # ------------------------------------------------------------------
    @classmethod
    def from_state(
        cls,
        graph: Graph,
        config: EngineConfig,
        z_tilde: sp.csc_matrix,
        perm: np.ndarray,
        column_sq_norms: np.ndarray,
        component_labels: np.ndarray,
        stats: ApproxInverseStats,
        ground_value: float,
    ) -> "CholInvEffectiveResistance":
        """Rehydrate an engine from persisted state, skipping every solve.

        Used by :func:`repro.core.persistence.load_engine`: the restored
        engine answers queries bit-identically to the one that was saved.
        The incomplete-Cholesky factor itself is *not* persisted, so
        :attr:`depths` / :attr:`max_depth` are unavailable on the result.
        """
        engine = cls.__new__(cls)
        engine.graph = graph
        engine.epsilon = config.epsilon
        engine.drop_tol = config.drop_tol
        engine.ordering = config.ordering
        engine.small_column_threshold = config.small_column_threshold
        engine.mode = config.mode
        engine.build_workers = config.build_workers
        engine.timer = Timer()
        engine.requested_ground_value = config.ground_value
        engine.ground_value = ground_value
        engine.component_labels = component_labels
        engine.ground_nodes = None
        engine.ichol_result = None
        engine.z_tilde = z_tilde
        engine.stats = stats
        engine.perm = perm
        engine._position = np.empty_like(perm)
        engine._position[perm] = np.arange(perm.shape[0])
        engine._column_sq_norms = column_sq_norms
        engine._z_finite = bool(np.isfinite(column_sq_norms).all())
        engine.n = graph.num_nodes
        engine.config = config
        return engine

    def rebuilt(self, graph: Graph, config: EngineConfig) -> ResistanceEngine:
        """The engine for an edited graph, reusing ``perm`` when it can.

        The fill-reducing orderings read only the sparsity pattern of the
        grounded Laplacian, which the node count and the set of node pairs
        joined by an edge determine (grounding picks one node per
        connected component).  When ``config`` still selects this unsharded
        engine with the same ordering and the edit kept ``n`` and that
        pair set — new weights, reordered edges, or extra conductance on
        existing edges — the successor factors on this engine's
        permutation and skips the ordering; every other stage runs as in
        a cold build, so the result is bit-identical to
        ``build_engine(graph, config)``.  Any other edit is a cold build.
        """
        same_engine = (
            config.method == self.engine_name
            and config.max_shard_nodes is None
            and config.ordering == self.ordering
        )
        if not (
            same_engine
            and graph.num_nodes == self.n
            and np.array_equal(graph.node_pair_keys(), self.graph.node_pair_keys())
        ):
            return super().rebuilt(graph, config)
        # a private copy: a warm-started engine's permutation may be a
        # read-only map of its archive, which must not outlive a rewrite
        perm = np.array(self.perm, dtype=np.int64)
        engine = type(self)(
            graph,
            perm=perm,
            **{p: getattr(config, p) for p in engine_params(self.engine_name)},
        )
        engine.config = config
        return engine

    def save(self, path):
        """Serialise ``Z̃``, permutation, norms, labels and config to .npz."""
        from repro.core.persistence import save_engine

        return save_engine(self, path)

    # ------------------------------------------------------------------
    @property
    def depths(self) -> np.ndarray:
        """Filled-graph depth (Eq. 11) of every permuted node."""
        require(
            self.ichol_result is not None,
            "depth statistics need the Cholesky factor, which is not "
            "persisted — unavailable on an engine restored from disk",
        )
        return filled_graph_depth(self.ichol_result.lower)

    @property
    def max_depth(self) -> int:
        """The ``dpt`` statistic of Table I."""
        depths = self.depths
        return int(depths.max()) if depths.size else 0

    # ------------------------------------------------------------------
    def query(self, p: int, q: int) -> float:
        """Eq. (22) for one pair, read straight from the two ``Z̃`` columns.

        The cross term intersects the columns' sorted row lists and sums
        the products with ``np.add.reduceat`` — the reduction
        :meth:`query_pairs` applies — so the answer is
        bit-identical to ``query_pairs([(p, q)])[0]`` at a fraction of
        the cost of a one-pair batch.
        """
        p, q = int(p), int(q)
        if p == q:
            return 0.0
        if self.component_labels[p] != self.component_labels[q]:
            return float("inf")
        z = self.z_tilde
        cp = self._position[p]
        cq = self._position[q]
        span_p = slice(z.indptr[cp], z.indptr[cp + 1])
        span_q = slice(z.indptr[cq], z.indptr[cq + 1])
        _, ip, iq = np.intersect1d(
            z.indices[span_p], z.indices[span_q],
            assume_unique=True, return_indices=True,
        )
        products = z.data[span_p][ip] * z.data[span_q][iq]
        dot = np.add.reduceat(products, [0])[0] if products.size else 0.0
        norms = self._column_sq_norms
        return max(float(norms[cp] + norms[cq] - 2.0 * dot), 0.0)

    def query_pairs(self, pairs) -> np.ndarray:
        """Approximate effective resistances for ``(m, 2)`` node pairs.

        Evaluates ``‖z̃_p − z̃_q‖² = ‖z̃_p‖² + ‖z̃_q‖² − 2·z̃_pᵀz̃_q`` over
        the whole batch.  The cross terms come from
        :func:`~repro.linalg.sparse_utils.column_pair_dots`, which merges
        the two columns' sorted row lists with scipy's compiled kernels,
        so the cost is linear in the touched nonzeros with no per-call
        O(nnz(Z̃)) pass.  That kernel alone bounds the working set: it
        walks the batch in cache-sized segments through reused buffers,
        so a large batch neither page-faults fresh scratch memory nor
        evicts the columns it reads.  It also owns the cores inside the
        batch: a batch of several segments is shared between this thread
        and helpers from the kernel's pool of ``cores − 1`` threads,
        within one segment budget of scratch, while any fan-out
        between batches belongs to the service's executor (see
        :mod:`repro.linalg.sparse_utils`); this call never waits for a
        helper that has not started.  The answers are
        bit-identical to the scipy expression
        ``(Z̃[:, P].multiply(Z̃[:, Q])).sum(axis=0)``.  Column norms that
        are all finite imply a finite ``Z̃``, which lets the product
        buffer be sized by the shorter column of each pair.
        """
        ps, qs = as_pair_columns(pairs)
        cols_p = self._position[ps]
        cols_q = self._position[qs]
        with self.timer.section("queries"):
            dots = column_pair_dots(
                self.z_tilde, cols_p, cols_q, assume_finite=self._z_finite
            )
            norms = self._column_sq_norms
            out = norms[cols_p] + norms[cols_q] - 2.0 * dots
        np.maximum(out, 0.0, out=out)
        same = self.component_labels[ps] == self.component_labels[qs]
        out[~same] = np.inf
        out[ps == qs] = 0.0
        return out


def effective_resistances(
    graph: Graph,
    pairs=None,
    config: "EngineConfig | None" = None,
) -> np.ndarray:
    """One-shot convenience API (dispatches through the engine registry).

    Parameters
    ----------
    graph:
        Weighted undirected graph.
    pairs:
        ``(m, 2)`` query pairs; default: every edge of the graph.
    config:
        :class:`~repro.core.engine.EngineConfig` naming the engine and its
        tunables (default: Alg. 3 with the paper's settings); see
        :func:`repro.core.engine.registered_engines` for the methods.
    """
    if pairs is None:
        pairs = graph.edge_array()
    return build_engine(graph, config).query_pairs(pairs)


def spanning_edge_centrality(
    graph: Graph, config: "EngineConfig | None" = None
) -> np.ndarray:
    """Spanning-edge centrality ``c(e) = w(e)·R(e)`` for every edge.

    This is the quantity the WWW'15 baseline paper computes: the probability
    that edge ``e`` belongs to a uniformly random spanning tree.  For a
    connected graph the exact values sum to ``n − 1`` (a property test
    exploits this invariant).
    """
    return graph.weights * effective_resistances(graph, config=config)


def dense_pinv_resistance(graph: Graph, pairs) -> np.ndarray:
    """Reference values through the dense pseudo-inverse (tests only).

    Computes Eq. (3) literally: ``R(p,q) = e_pqᵀ L_G† e_pq``.  O(n³) — keep
    ``n`` small.
    """
    from repro.graphs.laplacian import laplacian

    lap = laplacian(graph).toarray()
    pinv = np.linalg.pinv(lap)
    ps, qs = as_pair_columns(pairs)
    diffs = pinv[ps, ps] + pinv[qs, qs] - pinv[ps, qs] - pinv[qs, ps]
    labels, _ = connected_components(graph)
    diffs = np.asarray(diffs, dtype=np.float64)
    diffs[labels[ps] != labels[qs]] = np.inf
    diffs[ps == qs] = 0.0
    return diffs
