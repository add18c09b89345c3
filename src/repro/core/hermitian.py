"""Numerical core of ALS: Hermitian assembly and batched solves.

Eq. (2) of the paper: for every row ``u``,

``A_u = Σ_{r_uv ≠ 0} (θ_v θ_vᵀ + λ I)``  and  ``B_u = Θᵀ · Rᵀ_{u*}``,

then ``x_u = A_u⁻¹ B_u``.  With the weighted-λ-regularization of eq. (1)
the λ term appears ``n_{x_u}`` times, i.e. ``A_u`` gets ``λ n_{x_u} I``.

Two implementations are provided:

* :func:`compute_hermitians` — the vectorised production path: gathers
  ``[θ_v | r_uv]`` for every rating of a row block once, as one
  ``(nnz, f + 1)`` array ``[G | r]``, groups the rows by rating count and
  forms each group's ``Gᵀ_u [G_u | r_u]`` with one batched ``matmul`` over a
  ``(rows, n_{x_u}, f + 1)`` stack: the first ``f`` columns are ``A_u``'s
  Gram, the last is ``B_u``.  No per-rating ``f × f`` outer product is ever
  stored (the host analogue of ``get_hermitian`` staging θ columns through
  shared memory), and λ is added to the diagonal only.
* :func:`compute_hermitians_loop` — a straight transliteration of
  Algorithm 1 used as the ground truth in tests.
"""

from __future__ import annotations

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
    comparisons against non-weighted formulations).  Both come from one
    gathered ``[G | r]`` and one ``Gᵀ[G | r]`` product per row length; λ is
    added to ``A``'s diagonal in place.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[0] != r.shape[1]:
        raise ValueError("theta must have one row per column of R")
    row_stop = r.shape[0] if row_stop is None else row_stop
    if not 0 <= row_start <= row_stop <= r.shape[0]:
        raise ValueError("invalid row range")
    f = theta.shape[1]
    rows = row_stop - row_start

    lo, hi = r.indptr[row_start], r.indptr[row_stop]
    cols = r.indices[lo:hi]
    vals = r.data[lo:hi]
    indptr = r.indptr[row_start : row_stop + 1] - lo

    # One gather of [θ_v | r_uv] per rating: A and B both come from it.
    gathered = np.empty((hi - lo, f + 1), dtype=np.float64)
    gathered[:, :f] = theta[cols]
    gathered[:, f] = vals
    counts = np.diff(indptr)
    a = np.zeros((rows, f, f), dtype=np.float64)
    b = np.zeros((rows, f), dtype=np.float64)
    # Rows of equal length L stack into a dense (k, L, f + 1) block G; one
    # batched Gᵀ[G | r] gives their A (first f columns) and B (last column).
    # Only one block exists at a time.
    order = np.argsort(counts, kind="stable")
    lengths = counts[order]
    starts = np.flatnonzero(np.diff(lengths, prepend=0))  # rows with no ratings keep A = 0, B = 0
    for lo_k, hi_k in zip(starts, np.append(starts[1:], rows)):
        sel = order[lo_k:hi_k]
        g = gathered[indptr[sel, None] + np.arange(lengths[lo_k])]
        ab = np.matmul(g[:, :, :f].transpose(0, 2, 1), g)
        a[sel] = ab[:, :, :f]
        b[sel] = ab[:, :, f]

    # λ goes on the diagonal only, through a strided view of A.
    diagonal = a.reshape(rows, f * f)[:, :: f + 1]
    diagonal += lam * counts[:, None] if weighted else lam
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
    batching structure cuMF uses on the GPU; a block's temporaries are its
    ``(rows, f, f)`` Hermitians and ``block_nnz × (f + 1)`` gathered
    ``[θ_v | r_uv]``.
    """
    m = r.shape[0]
    f = np.asarray(theta).shape[1]
    x = np.zeros((m, f), dtype=np.float64)
    for start in range(0, m, row_batch):
        stop = min(start + row_batch, m)
        a, b = compute_hermitians(r, theta, lam, start, stop, weighted=weighted)
        x[start:stop] = batch_solve(a, b)
    return x
