"""Landmark/index estimator — answer any pair from two ``k``-vectors.

The ``cholinv`` engine answers ``R(p, q) ≈ ‖z̃_p − z̃_q‖²`` by multiplying
two sparse ``Z̃`` columns; on fill-heavy graphs (social/power-law) each
column carries thousands of nonzeros and every query pays for them.  The
landmark engine spends one extra projection pass at build time so that a
query touches ``O(k)`` floats instead:

1. pick ``k`` landmark nodes (top weighted degree by default — hubs are
   where the fill is — or BFS farthest-point "spread" / seeded random);
2. QR-factor the landmark columns ``Z_L`` into an orthonormal basis ``A``
   and project **every** column: ``u_v = Aᵀ z̃_v`` (a ``k``-vector per
   node), with the residual norm ``r_v² = ‖z̃_v‖² − ‖u_v‖²`` tracked
   exactly;
3. answer ``R(p, q) ≈ ‖u_p − u_q‖² + r_p² + r_q²`` — exact whenever either
   endpoint is a landmark — inside a **certified interval**: the projection
   split gives ``‖u_p − u_q‖² + (r_p ∓ r_q)²`` and the landmark distance
   table gives resistance-metric triangle bounds
   ``max_l |R(p,l) − R(q,l)| ≤ R(p,q) ≤ min_l (R(p,l) + R(q,l))``
   (all pairwise ``‖z̃_a − z̃_b‖²`` values are effective resistances of the
   ground-augmented graph, hence a metric — valid across components too).

Error semantics are relative to the *cholinv-grade* answers the factor
defines: the interval brackets what the exact ``cholinv`` path would
return, which is the reference the serving stack escalates against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike

from repro.core.effective_resistance import CholInvEffectiveResistance
from repro.core.engine import EngineConfig, build_engine, register_engine
from repro.estimators.base import (
    BoundedResistanceEngine,
    split_trivial,
    weighted_degrees,
)
from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import require

_QUERY_CHUNK = 65536


def _spread_landmarks(graph: Graph, count: int, start: int) -> np.ndarray:
    """BFS farthest-point landmark selection (deterministic)."""
    adjacency = graph.adjacency().tocsr()
    n = graph.num_nodes

    def bfs(source: int) -> np.ndarray:
        distance = np.full(n, n + 1, dtype=np.int64)
        distance[source] = 0
        frontier = np.asarray([source], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            neighbour_blocks = [
                adjacency.indices[adjacency.indptr[u]:adjacency.indptr[u + 1]]
                for u in frontier
            ]
            neighbours = np.unique(np.concatenate(neighbour_blocks)) if (
                neighbour_blocks
            ) else np.empty(0, dtype=np.int64)
            fresh = neighbours[distance[neighbours] > level]
            distance[fresh] = level
            frontier = fresh
        return distance

    nearest = bfs(start)
    chosen = [int(np.argmax(nearest))]
    while len(chosen) < count:
        np.minimum(nearest, bfs(chosen[-1]), out=nearest)
        chosen.append(int(np.argmax(nearest)))
    return np.asarray(sorted(set(chosen)), dtype=np.int64)


def select_landmarks(
    graph: Graph, count: int, strategy: str, seed: "int | None"
) -> np.ndarray:
    """Pick ``count`` distinct landmark node ids (sorted)."""
    n = graph.num_nodes
    count = min(count, n)
    if strategy == "degree":
        degrees = weighted_degrees(graph)
        top = np.argsort(-degrees, kind="stable")[:count]
        return np.sort(top.astype(np.int64))
    if strategy == "random":
        rng = ensure_rng(seed)
        return np.sort(rng.choice(n, size=count, replace=False).astype(np.int64))
    require(strategy == "spread", f"unknown landmark strategy {strategy!r}")
    start = int(np.argmax(weighted_degrees(graph)))
    return _spread_landmarks(graph, count, start)


@register_engine(
    "landmark",
    params=(
        "num_landmarks", "landmark_strategy", "seed",
        "epsilon", "drop_tol", "ordering", "mode",
        "small_column_threshold", "ground_value", "build_workers",
    ),
)
class LandmarkEffectiveResistance(BoundedResistanceEngine):
    """Landmark-projection tier over the Alg. 3 factor.

    Parameters
    ----------
    graph:
        Weighted undirected graph.
    num_landmarks:
        Index size ``k`` (clamped to ``n``); queries cost ``O(k)``.
    landmark_strategy:
        ``"degree"`` (default), ``"spread"`` or ``"random"``.
    seed:
        RNG seed (used by ``landmark_strategy="random"`` only).
    epsilon, drop_tol, ordering, mode, small_column_threshold,
    ground_value, build_workers:
        Forwarded to the internal ``cholinv`` build that produces the
        columns being projected (so a tuned exact tier and its landmark
        tier agree on the factor).
    """

    def __init__(
        self,
        graph: Graph,
        num_landmarks: int = 32,
        landmark_strategy: str = "degree",
        seed: "int | None" = None,
        epsilon: float = 1e-3,
        drop_tol: float = 1e-3,
        ordering: str = "amd",
        mode: str = "blocked",
        small_column_threshold: "float | None" = None,
        ground_value: "float | None" = None,
        build_workers: int = 1,
    ) -> None:
        base_config = EngineConfig(
            method="cholinv",
            epsilon=epsilon,
            drop_tol=drop_tol,
            ordering=ordering,
            mode=mode,
            small_column_threshold=small_column_threshold,
            ground_value=ground_value,
            build_workers=build_workers,
        )
        base = build_engine(graph, base_config)
        self._init_from_base(
            base, base_config, num_landmarks, landmark_strategy, seed,
            timer=base.timer,
        )

    @classmethod
    def from_base_engine(
        cls,
        base: "object",
        num_landmarks: int = 32,
        landmark_strategy: str = "degree",
        seed: "int | None" = None,
    ) -> "LandmarkEffectiveResistance":
        """Project an *already built* ``cholinv`` engine (no refactoring).

        This is how the serving layer derives its landmark tier from the
        exact engine it already owns — the expensive factorisation is
        shared, only the ``O(n·k)`` projection pass runs.
        """
        require(
            isinstance(base, CholInvEffectiveResistance),
            f"landmark projection needs a cholinv base engine, "
            f"got {type(base).__name__}",
        )
        assert isinstance(base, CholInvEffectiveResistance)
        base_config = (
            base.config
            if base.config is not None and base.config.method == "cholinv"
            else EngineConfig(
                method="cholinv",
                epsilon=base.epsilon,
                drop_tol=base.drop_tol,
                ordering=base.ordering,
                mode=base.mode,
                small_column_threshold=base.small_column_threshold,
                ground_value=base.requested_ground_value,
                build_workers=base.build_workers,
            )
        )
        engine = cls.__new__(cls)
        engine._init_from_base(
            base, base_config, num_landmarks, landmark_strategy, seed,
            timer=Timer(),
        )
        engine.config = EngineConfig.from_dict(
            dict(
                base_config.to_dict(),
                method="landmark",
                num_landmarks=num_landmarks,
                landmark_strategy=landmark_strategy,
                seed=seed,
            )
        )
        return engine

    # ------------------------------------------------------------------
    def _init_from_base(
        self,
        base: "object",
        base_config: EngineConfig,
        num_landmarks: int,
        landmark_strategy: str,
        seed: "int | None",
        timer: Timer,
    ) -> None:
        assert isinstance(base, CholInvEffectiveResistance)
        graph = base.graph
        self.graph = graph
        self.n = graph.num_nodes
        self.component_labels = base.component_labels
        self.timer = timer
        self.base_engine: "CholInvEffectiveResistance | None" = base
        self.base_config = base_config
        self.num_landmarks = num_landmarks
        self.landmark_strategy = landmark_strategy
        self.seed = seed
        self.ground_value = float(base.ground_value)
        with self.timer.section("landmark_projection"):
            landmarks = select_landmarks(
                graph, num_landmarks, landmark_strategy, seed
            )
            position = base._position
            z = base.z_tilde.tocsc()
            # node-indexed square norms nu_v = ||z_v||^2
            nu = np.asarray(base._column_sq_norms)[position]
            landmark_columns = z[:, position[landmarks]].toarray()
            basis, _ = np.linalg.qr(landmark_columns)
            projected = np.asarray(z.T @ basis)[position]  # node-indexed u_v
            resid_sq = np.maximum(
                nu - np.einsum("ij,ij->i", projected, projected), 0.0
            )
            # exact inner products z_v . z_l (landmark columns lie in the
            # basis span), hence exact embedding distances to landmarks
            cross = projected @ (basis.T @ landmark_columns)
            dist_sq = nu[:, None] + nu[landmarks][None, :] - 2.0 * cross
            np.maximum(dist_sq, 0.0, out=dist_sq)
        self._install_tables(
            projected, resid_sq, dist_sq, landmarks,
            weighted_degrees(graph),
        )

    def _install_tables(
        self,
        projected: np.ndarray,
        resid_sq: np.ndarray,
        dist_sq: np.ndarray,
        landmarks: np.ndarray,
        weighted_degree: np.ndarray,
    ) -> None:
        self.landmarks = np.asarray(landmarks, dtype=np.int64)
        self._u = np.asarray(projected, dtype=np.float64)
        self._resid_sq = np.asarray(resid_sq, dtype=np.float64)
        self._resid = np.sqrt(self._resid_sq)
        self._dist_sq = np.asarray(dist_sq, dtype=np.float64)
        self._weighted_degree = np.asarray(weighted_degree, dtype=np.float64)

    # ------------------------------------------------------------------
    @classmethod
    def from_state(
        cls,
        graph: Graph,
        config: EngineConfig,
        u: np.ndarray,
        resid_sq: np.ndarray,
        dist_sq: np.ndarray,
        landmarks: np.ndarray,
        component_labels: np.ndarray,
        ground_value: float,
    ) -> "LandmarkEffectiveResistance":
        """Rehydrate a saved landmark engine (projection tables only).

        The internal ``cholinv`` base engine is *not* persisted — the
        tables answer every query — so :attr:`base_engine` is ``None`` on
        the restored object; a service that needs the exact tier again
        rebuilds it from :attr:`base_config`.
        """
        engine = cls.__new__(cls)
        engine.graph = graph
        engine.n = graph.num_nodes
        engine.component_labels = np.asarray(component_labels, dtype=np.int64)
        engine.timer = Timer()
        engine.base_engine = None
        engine.num_landmarks = config.num_landmarks
        engine.landmark_strategy = config.landmark_strategy
        engine.seed = config.seed
        engine.base_config = EngineConfig(
            method="cholinv",
            epsilon=config.epsilon,
            drop_tol=config.drop_tol,
            ordering=config.ordering,
            mode=config.mode,
            small_column_threshold=config.small_column_threshold,
            ground_value=config.ground_value,
            build_workers=config.build_workers,
        )
        engine.ground_value = float(ground_value)
        engine._install_tables(
            u, resid_sq, dist_sq, landmarks, weighted_degrees(graph)
        )
        engine.config = config
        return engine

    def save(self, path: "str | Path") -> Path:
        """Serialise the projection tables to ``path`` (``.npz``)."""
        from repro.core.persistence import save_engine

        return save_engine(self, path)

    # ------------------------------------------------------------------
    def query_pairs_with_bounds(
        self, pairs: ArrayLike
    ) -> "tuple[np.ndarray, np.ndarray]":
        ps, qs, values, half_widths, active = split_trivial(
            self.component_labels, pairs
        )
        rows = np.flatnonzero(active)
        with self.timer.section("queries"):
            for start in range(0, rows.shape[0], _QUERY_CHUNK):
                chunk = rows[start:start + _QUERY_CHUNK]
                est, half = self._estimate(ps[chunk], qs[chunk])
                values[chunk] = est
                half_widths[chunk] = half
        return values, half_widths

    def _estimate(
        self, ps: np.ndarray, qs: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        du = self._u[ps] - self._u[qs]
        proj = np.einsum("ij,ij->i", du, du)
        rp, rq = self._resid[ps], self._resid[qs]
        estimate = proj + self._resid_sq[ps] + self._resid_sq[qs]
        lower = proj + (rp - rq) ** 2
        upper = proj + (rp + rq) ** 2
        # resistance-metric triangle bounds through every landmark
        dp, dq = self._dist_sq[ps], self._dist_sq[qs]
        # NOTE: no cut-bound floor here — the interval certifies the
        # cholinv-grade answer (the embedding distance), and the floor
        # bounds the *true* resistance, which the factor's own epsilon
        # error can undercut.  Mixing the two breaks containment.
        lower = np.maximum(lower, np.max(np.abs(dp - dq), axis=1))
        upper = np.minimum(upper, np.min(dp + dq, axis=1))
        upper = np.maximum(upper, lower)
        estimate = np.clip(estimate, lower, upper)
        # the estimate is generally off-centre in [lower, upper], so the
        # half-width must cover the farther endpoint — reporting the
        # midpoint width instead would shrink the certified interval on
        # one side and break containment
        return estimate, np.maximum(estimate - lower, upper - estimate)
