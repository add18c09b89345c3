"""Compressed Sparse Row matrix.

CSR is the layout cuMF uses for the update-X pass: solving row ``u`` of X
needs all ratings in row ``u`` of R, which CSR exposes as a contiguous
slice ``indices[indptr[u]:indptr[u+1]]``.  The memory-footprint column of
Table 3 counts a CSR row as ``(2*Nz + m + 1) / m`` floats, i.e. the whole
structure is ``data`` (Nz) + ``indices`` (Nz) + ``indptr`` (m + 1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A sparse matrix in CSR format backed by three NumPy arrays.

    Attributes
    ----------
    shape:
        ``(m, n)`` logical dimensions.
    indptr:
        ``int64[m + 1]`` row pointer; row ``u`` occupies
        ``[indptr[u], indptr[u + 1])`` in ``indices``/``data``.
    indices:
        ``int64[nnz]`` column index of every stored entry.
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
        if self.indptr.shape != (m + 1,):
            raise ValueError(f"indptr must have length m + 1 = {m + 1}, got {self.indptr.shape}")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.shape[0]:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have the same length")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("column index out of bounds")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Compress a :class:`~repro.sparse.coo.COOMatrix`, summing duplicates."""
        dedup = coo.deduplicate()
        m, n = dedup.shape
        order = np.lexsort((dedup.cols, dedup.rows))
        rows = dedup.rows[order]
        cols = dedup.cols[order]
        data = dedup.data[order]
        counts = np.bincount(rows, minlength=m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls((m, n), indptr, cols, data)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build directly from a dense array, dropping zeros."""
        from repro.sparse.coo import COOMatrix

        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def from_arrays(cls, shape, rows, cols, data) -> "CSRMatrix":
        """Convenience constructor from raw triplet arrays."""
        from repro.sparse.coo import COOMatrix

        return cls.from_coo(COOMatrix(shape, np.asarray(rows), np.asarray(cols), np.asarray(data)))

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.shape[0])

    @property
    def density(self) -> float:
        """``nnz / (m * n)``."""
        m, n = self.shape
        return self.nnz / float(m * n)

    def range_nnz(self, start_row: int, stop_row: int) -> int:
        """Stored entries in rows ``[start_row, stop_row)``."""
        return int(self.indptr[stop_row] - self.indptr[start_row])

    def nnz_per_row(self) -> np.ndarray:
        """``n_{x_u}`` of the paper: number of ratings in every row."""
        return np.diff(self.indptr)

    def nnz_per_col(self) -> np.ndarray:
        """``n_{θ_v}`` of the paper: number of ratings in every column."""
        return np.bincount(self.indices, minlength=self.shape[1])

    def memory_floats(self) -> int:
        """Single-precision-float-equivalent footprint, ``2*Nz + m + 1``.

        This is the quantity Table 3 charges for holding a CSR copy of R
        (values + column indices + row pointer, each counted as one float).
        """
        return 2 * self.nnz + self.shape[0] + 1

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(column indices, values)`` of row ``u`` as views."""
        start, stop = self.indptr[u], self.indptr[u + 1]
        return self.indices[start:stop], self.data[start:stop]

    def row_slice(self, start_row: int, stop_row: int) -> "CSRMatrix":
        """Extract rows ``[start_row, stop_row)`` as a new CSR matrix.

        The result keeps the original column dimension; row indices are
        re-based to zero.
        """
        if not 0 <= start_row <= stop_row <= self.shape[0]:
            raise ValueError("invalid row slice bounds")
        lo, hi = self.indptr[start_row], self.indptr[stop_row]
        indptr = self.indptr[start_row : stop_row + 1] - lo
        return CSRMatrix((stop_row - start_row, self.shape[1]), indptr, self.indices[lo:hi].copy(), self.data[lo:hi].copy())

    def row_ids(self) -> np.ndarray:
        """Expanded row index of every stored entry (COO row vector)."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_coo(self):
        """Expand back to :class:`~repro.sparse.coo.COOMatrix`."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix(self.shape, self.row_ids(), self.indices.copy(), self.data.copy())

    def to_csc(self):
        """Re-compress by columns (used for the update-Θ pass)."""
        from repro.sparse.csc import CSCMatrix

        return CSCMatrix.from_coo(self.to_coo())

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_ids(), self.indices] = self.data
        return out

    def transpose(self):
        """Return R^T as a CSR matrix (equivalently, R in CSC reinterpreted)."""
        return CSRMatrix.from_coo(self.to_coo().transpose())

    # ------------------------------------------------------------------ #
    # arithmetic helpers
    # ------------------------------------------------------------------ #
    def dot_dense(self, dense: np.ndarray) -> np.ndarray:
        """``R @ dense`` where ``dense`` is ``(n, k)``; returns ``(m, k)``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape[0] != self.shape[1]:
            raise ValueError("dimension mismatch in dot_dense")
        gathered = dense[self.indices] * self.data[:, None]
        out = np.zeros((self.shape[0], dense.shape[1]), dtype=np.float64)
        np.add.at(out, self.row_ids(), gathered)
        return out

    def frobenius_norm(self) -> float:
        """Frobenius norm of the stored entries."""
        return float(np.sqrt(np.sum(self.data**2)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
