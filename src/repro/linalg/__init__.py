"""Supporting linear algebra: PCG, the SPD factorisation, sparse helpers."""

from repro.linalg.pcg import PCGResult, pcg
from repro.linalg.spd import NotPositiveDefiniteError, spd_factor
from repro.linalg.sparse_utils import (
    column_slices,
    drop_small,
    nnz_per_column,
    relative_residual,
)

__all__ = [
    "pcg",
    "PCGResult",
    "spd_factor",
    "NotPositiveDefiniteError",
    "drop_small",
    "nnz_per_column",
    "column_slices",
    "relative_residual",
]
