"""Vectorised sparse kernels shared by the solvers.

These are the NumPy equivalents of the CUDA kernels cuMF builds on top of
cuSPARSE (``csrmm2`` for ``Θᵀ·Rᵀ_{u*}``) plus a few residual helpers used by
the SGD/CCD baselines.  All of them avoid Python-level per-entry loops —
the guide's "vectorise the hot loop" rule — by expanding to COO index
vectors and using fancy indexing + ``np.add.at`` scatter adds.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "csr_spmv",
    "csr_spmm",
    "csr_row_dense_product",
    "csr_column_gather",
    "sampled_residual",
    "rmse_from_residual",
]

# Stored entries per prediction chunk in :func:`sampled_residual`: bounds
# its two gathered ``(chunk, f)`` operands to a few MB whatever the nnz.
RESIDUAL_CHUNK = 8192


def csr_spmv(r: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``R @ x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (r.shape[1],):
        raise ValueError("vector length must equal number of columns")
    contrib = r.data * x[r.indices]
    out = np.zeros(r.shape[0], dtype=np.float64)
    np.add.at(out, r.row_ids(), contrib)
    return out


def csr_spmm(r: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense matrix product ``R @ D`` with ``D`` of shape ``(n, k)``."""
    return r.dot_dense(dense)


def csr_row_dense_product(r: CSRMatrix, theta: np.ndarray) -> np.ndarray:
    """Compute ``B`` with ``B[u] = Θᵀ · Rᵀ_{u*}`` for every row ``u``.

    ``theta`` is the ``(n, f)`` factor matrix (row ``v`` is ``θ_v``); the
    result is the ``(m, f)`` stack of right-hand sides of eq. (2).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[0] != r.shape[1]:
        raise ValueError("theta must have one row per column of R")
    return r.dot_dense(theta)


def csr_column_gather(r: CSRMatrix, theta: np.ndarray, u: int) -> np.ndarray:
    """Gather ``Θᵀ_u``: the θ_v columns rated by row ``u`` (Algorithm 1 line 3).

    Returns an ``(n_{x_u}, f)`` array whose rows are the gathered θ_v.
    """
    cols, _ = r.row(u)
    return np.asarray(theta, dtype=np.float64)[cols]


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
