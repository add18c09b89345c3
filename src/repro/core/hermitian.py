"""Numerical core of ALS: Hermitian assembly and batched solves.

Eq. (2) of the paper: for every row ``u``,

``A_u = Σ_{r_uv ≠ 0} (θ_v θ_vᵀ + λ I)``  and  ``B_u = Θᵀ · Rᵀ_{u*}``,

then ``x_u = A_u⁻¹ B_u``.  With the weighted-λ-regularization of eq. (1)
the λ term appears ``n_{x_u}`` times, i.e. ``A_u`` gets ``λ n_{x_u} I``.

Two implementations are provided:

* :func:`compute_hermitians` — the vectorised production path, the host
  analogue of ``get_hermitian``'s staged access to sparse data.  It orders
  a row block's rows by rating count and gathers ``[θ_v | r_uv]`` for every
  rating once, in that order, as one ``(nnz, f + 1)`` array.  The rows of
  one length ``n_{x_u}`` are then a contiguous ``(k, n_{x_u}, f + 1)``
  stack ``G``, and one batched ``Gᵀ G[:, :, :f]`` gives their ``A_u``
  Grams (first ``f`` rows) and ``B_uᵀ`` (last row).  λ goes on each
  product's diagonal while it is in cache, and the product's two parts are
  written once, into their rows' places in the contiguous ``A`` and ``B``.
  No per-rating ``f × f`` outer product is ever stored, and each rating's
  bytes are gathered once.  The product is ``(f + 1) × f`` per row, and
  the per-group oracle in ``tests/test_hermitian_one_gather.py`` forms its
  ``f × (f + 1)`` transpose; a single-threaded OpenBLAS gives the same bits
  for both, while a multi-threaded one may split products above ~10⁶
  multiply-adds differently by output shape.
* :func:`compute_hermitians_loop` — a straight transliteration of
  Algorithm 1 used as the ground truth in tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "compute_hermitians",
    "compute_hermitians_loop",
    "batch_solve",
    "update_factor",
]


def compute_hermitians(
    r: CSRMatrix,
    theta: np.ndarray,
    lam: float,
    row_start: int = 0,
    row_stop: int | None = None,
    weighted: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``get_hermitian_x`` for rows ``[row_start, row_stop)``.

    Returns ``(A, B)`` with shapes ``(rows, f, f)`` and ``(rows, f)``.
    ``weighted=True`` applies the weighted-λ-regularization
    (``λ n_{x_u} I``); ``False`` applies plain ``λ I`` (useful for
    comparisons against non-weighted formulations).

    ``A`` and ``B`` are separate C-contiguous arrays.  Raises
    ``ValueError`` when ``theta`` is not 2-D or ``lam`` is negative or not
    finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != r.shape[1]:
        raise ValueError(f"theta must be 2-D with one row per column of R; got shape {theta.shape} for R {r.shape}")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and non-negative; got {lam}")
    row_stop = r.shape[0] if row_stop is None else row_stop
    if not 0 <= row_start <= row_stop <= r.shape[0]:
        raise ValueError("invalid row range")
    f = theta.shape[1]
    rows = row_stop - row_start

    counts = np.diff(r.indptr[row_start : row_stop + 1])
    order = np.argsort(counts, kind="stable")
    lengths = counts[order]
    offsets = np.cumsum(lengths) - lengths  # where each ordered row's ratings start in the gather
    # One gather of [θ_v | r_uv], rows in length order: whole rows of a
    # widened θ land contiguously, then r_uv fills the spare column.
    nnz = int(r.indptr[row_stop] - r.indptr[row_start])
    picked = np.arange(nnz) + np.repeat(r.indptr[row_start:row_stop][order] - offsets, lengths)
    widened = np.empty((theta.shape[0], f + 1), dtype=np.float64)
    widened[:, :f] = theta
    gathered = np.take(widened, np.take(r.indices, picked), axis=0)
    gathered[:, f] = np.take(r.data, picked)

    # A run of k rows of length L is the (k, L, f + 1) block G; Gᵀ G[:, :, :f]
    # stacks A_u over B_uᵀ.  λ goes on A's diagonal before the one write of
    # each part.  The zero-length run's product is zeros, so every row is written.
    a = np.empty((rows, f, f), dtype=np.float64)
    b = np.empty((rows, f), dtype=np.float64)
    starts = np.flatnonzero(np.diff(lengths, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], rows)):
        k, length = hi - lo, lengths[lo]
        g = gathered[offsets[lo] : offsets[lo] + k * length].reshape(k, length, f + 1)
        block = np.matmul(g.transpose(0, 2, 1), g[:, :, :f])
        block.reshape(k, -1)[:, : f * f : f + 1] += lam * length if weighted else lam
        a[order[lo:hi]] = block[:, :f]
        b[order[lo:hi]] = block[:, f]
    return a, b


def compute_hermitians_loop(r: CSRMatrix, theta: np.ndarray, lam: float, weighted: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Reference implementation of Algorithm 1 lines 2-9 (per-row loop)."""
    theta = np.asarray(theta, dtype=np.float64)
    m = r.shape[0]
    f = theta.shape[1]
    a = np.zeros((m, f, f), dtype=np.float64)
    b = np.zeros((m, f), dtype=np.float64)
    eye = np.eye(f, dtype=np.float64)
    for u in range(m):
        cols, vals = r.row(u)
        a_u = np.zeros((f, f), dtype=np.float64)
        for v_idx in range(cols.shape[0]):
            theta_v = theta[cols[v_idx]]
            a_u += np.outer(theta_v, theta_v)
            if weighted:
                a_u += lam * eye
        if not weighted:
            a_u += lam * eye
        a[u] = a_u
        b[u] = theta[cols].T @ vals if cols.size else 0.0
    return a, b


def batch_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stack of linear systems ``A_u x_u = B_u`` (Algorithm 1 Batch_Solve).

    Rows whose ``A_u`` is singular (no ratings and λ weighting of zero)
    get a zero solution rather than raising, matching what a regularized
    production system does with cold users/items.  The whole stack goes to
    one ``np.linalg.solve`` call: as given when every system is solvable,
    else on copies whose singular rows are replaced by ``I x = 0``.  The
    caller's arrays are never modified, and each solvable row's result is
    bitwise the one a lone per-row solve gives.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 2 or a.shape[0] != b.shape[0] or a.shape[1] != a.shape[2] or a.shape[2] != b.shape[1]:
        raise ValueError(f"incompatible shapes for batch solve: {a.shape} vs {b.shape}")
    # Identify well-posed systems cheaply via the diagonal (A_u is PSD + λnI,
    # so a zero diagonal row happens only for rows with no ratings and no reg).
    diag = np.einsum("kii->ki", a)
    solvable = np.all(diag > 0, axis=1)
    if not solvable.any():
        return np.zeros_like(b)
    if not solvable.all():
        singular = ~solvable
        a, b = a.copy(), b.copy()
        a[singular] = np.eye(a.shape[1])
        b[singular] = 0.0
    try:
        # Keep an explicit trailing axis so the stacked solve treats b as
        # a batch of column vectors on every NumPy version.
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # Extremely rare fallback: solve one by one, pinv for the bad ones.
        out = np.zeros_like(b)
        for idx in np.nonzero(solvable)[0]:
            try:
                out[idx] = np.linalg.solve(a[idx], b[idx])
            except np.linalg.LinAlgError:
                out[idx] = np.linalg.pinv(a[idx]) @ b[idx]
        return out


def update_factor(
    r: CSRMatrix,
    theta: np.ndarray,
    lam: float,
    row_batch: int = 4096,
    weighted: bool = True,
) -> np.ndarray:
    """One full update-X pass: returns the new ``X`` given ``Θ`` fixed.

    The pass runs in row blocks of ``row_batch``, which is exactly the
    batching structure cuMF uses on the GPU.  A block's temporaries are
    its ``(rows, f, f)`` and ``(rows, f)`` outputs, the ``block_nnz ×
    (f + 1)`` gathered ``[θ_v | r_uv]``, an ``n × (f + 1)`` widened copy of
    ``Θ``, two ``block_nnz`` index arrays and one run's ``(k, f + 1, f)``
    product.
    """
    m = r.shape[0]
    f = np.asarray(theta).shape[1]
    x = np.zeros((m, f), dtype=np.float64)
    for start in range(0, m, row_batch):
        stop = min(start + row_batch, m)
        a, b = compute_hermitians(r, theta, lam, start, stop, weighted=weighted)
        x[start:stop] = batch_solve(a, b)
    return x
