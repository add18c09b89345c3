"""Compressed Sparse Column matrix.

The update-Θ pass of ALS mirrors update-X with all variables symmetrically
exchanged (paper §2.1): solving column ``v`` of Θ needs all ratings in
column ``v`` of R, which CSC exposes contiguously.  Its constructors and
:meth:`CSCMatrix.to_csr` go through :func:`repro.sparse.coo._compress`,
so rows are strictly ascending within each column.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix, _compress

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """A sparse matrix in CSC format backed by three NumPy arrays.

    Attributes
    ----------
    shape:
        ``(m, n)`` logical dimensions.
    indptr:
        ``int64[n + 1]`` column pointer.
    indices:
        ``int64[nnz]`` row index of every stored entry.
    data:
        ``float64[nnz]`` stored values.
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        m, n = self.shape
        if self.indptr.shape != (n + 1,):
            raise ValueError(f"indptr must have length n + 1 = {n + 1}, got {self.indptr.shape}")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have the same length")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= m):
            raise ValueError("row index out of bounds")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, coo) -> "CSCMatrix":
        """Compress a :class:`~repro.sparse.coo.COOMatrix`, summing duplicates."""
        m, n = coo.shape
        return cls((m, n), *_compress(coo.cols, coo.rows, coo.data, n, m))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        """Build directly from a dense array, dropping zeros."""
        return cls.from_coo(COOMatrix.from_dense(dense))

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.shape[0])

    def nnz_per_col(self) -> np.ndarray:
        """``n_{θ_v}``: number of ratings in every column."""
        return np.diff(self.indptr)

    def nnz_per_row(self) -> np.ndarray:
        """``n_{x_u}``: number of ratings in every row."""
        return np.bincount(self.indices, minlength=self.shape[0])

    def col(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(row indices, values)`` of column ``v`` as views."""
        start, stop = self.indptr[v], self.indptr[v + 1]
        return self.indices[start:stop], self.data[start:stop]

    def col_ids(self) -> np.ndarray:
        """Expanded column index of every stored entry."""
        return np.repeat(np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr))

    def col_slice(self, start_col: int, stop_col: int) -> "CSCMatrix":
        """Extract columns ``[start_col, stop_col)``; column ids re-based to zero."""
        if not 0 <= start_col <= stop_col <= self.shape[1]:
            raise ValueError("invalid column slice bounds")
        lo, hi = self.indptr[start_col], self.indptr[stop_col]
        indptr = self.indptr[start_col : stop_col + 1] - lo
        return CSCMatrix((self.shape[0], stop_col - start_col), indptr, self.indices[lo:hi].copy(), self.data[lo:hi].copy())

    # ------------------------------------------------------------------ #
    def to_coo(self):
        """Expand back to :class:`~repro.sparse.coo.COOMatrix`."""
        return COOMatrix(self.shape, self.indices.copy(), self.col_ids(), self.data.copy())

    def to_csr(self):
        """Re-compress by rows."""
        from repro.sparse.csr import CSRMatrix

        m, n = self.shape
        return CSRMatrix(self.shape, *_compress(self.indices, self.col_ids(), self.data, m, n))

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.indices, self.col_ids()] = self.data
        return out

    def transpose_csr(self):
        """Return R^T in CSR format without an intermediate sort.

        A CSC layout of R *is* a CSR layout of R^T with the roles of
        ``indptr``/``indices`` unchanged, so this is a free reinterpretation.
        """
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix((self.shape[1], self.shape[0]), self.indptr.copy(), self.indices.copy(), self.data.copy())

    def dot_dense_transposed(self, dense: np.ndarray) -> np.ndarray:
        """``R^T @ dense`` where ``dense`` is ``(m, k)``; returns ``(n, k)``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape[0] != self.shape[0]:
            raise ValueError("dimension mismatch in dot_dense_transposed")
        gathered = dense[self.indices] * self.data[:, None]
        out = np.zeros((self.shape[1], dense.shape[1]), dtype=np.float64)
        np.add.at(out, self.col_ids(), gathered)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"
