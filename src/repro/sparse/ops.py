"""Vectorised residual helpers shared by the solvers and metrics.

The sampled residual ``r_uv − x_uᵀθ_v`` at every stored rating feeds the
RMSE metric and the SGD/CCD baselines.  It avoids Python-level per-entry
loops by expanding CSR to COO index vectors and gathering the factor rows
with fancy indexing.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "sampled_residual",
    "rmse_from_residual",
]

# Stored entries per prediction chunk in :func:`sampled_residual`: bounds
# its two gathered ``(chunk, f)`` operands to a few MB whatever the nnz.
RESIDUAL_CHUNK = 8192


def sampled_residual(r: CSRMatrix, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Residual ``r_uv − x_uᵀ θ_v`` at every stored coordinate of R.

    This is the sampled dense-dense product (SDDMM) used by the SGD and
    CCD++ baselines and by the RMSE metric; it never materialises the dense
    ``X Θᵀ``, nor more than :data:`RESIDUAL_CHUNK` gathered rows at a time.
    Every entry's dot product is the same whatever the chunking.
    """
    x = np.asarray(x, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    rows = r.row_ids()
    out = np.empty(r.nnz, dtype=np.float64)
    for lo in range(0, r.nnz, RESIDUAL_CHUNK):
        hi = lo + RESIDUAL_CHUNK
        pred = np.einsum("ij,ij->i", x[rows[lo:hi]], theta[r.indices[lo:hi]])
        out[lo:hi] = r.data[lo:hi] - pred
    return out


def rmse_from_residual(residual: np.ndarray) -> float:
    """Root-mean-square error of a residual vector (empty → 0.0)."""
    if residual.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(residual**2)))
