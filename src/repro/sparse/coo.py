"""Coordinate (triplet) sparse matrix, and the one compression routine.

COO is the construction/interchange format: rating files, synthetic
generators and train/test splitters all produce COO, which is then
compressed into CSR/CSC before being handed to the solvers.

Every compressed matrix is built by :func:`_compress`: the COO → CSR/CSC
constructors, :meth:`COOMatrix.deduplicate`, the CSR ↔ CSC conversions
and ``CSRMatrix.transpose``.  Its output is *canonical*: entries sorted
by major index (the row for CSR, the column for CSC), then by minor
index, one entry per cell, and a cell's duplicates summed in the order
they were given.  So a build is a function of the triplets and their
order only, and a cell holds the same bits in the CSR and the CSC build.

The sort is NumPy's stable sort of one int64 key per entry, which is
timsort: it finds the runs already in order and merges them.  The
entries of a canonical matrix are one run, so re-compressing them (a
train/test split of a canonical matrix, taken in order) is linear, and
appending a short unsorted tail of ``t`` entries to ``nnz`` sorted ones
(the refresh merge of :func:`~repro.serving.lifecycle.refresh.merged_ratings`)
costs ``O(nnz + t log t)``, not a full ``O(nnz log nnz)`` re-sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["COOMatrix"]


def _compress(major: np.ndarray, minor: np.ndarray, data: np.ndarray, n_major: int, n_minor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical ``(indptr, indices, data)`` of the triplets, duplicates summed.

    ``major``/``minor`` are int64 coordinates below ``n_major``/``n_minor``
    (rows/columns for CSR, columns/rows for CSC).  One stable argsort of
    the linear key ``major * n_minor + minor``, run starts from one
    comparison of neighbouring keys, ``np.add.reduceat`` over the runs and
    ``indptr`` from ``bincount`` + ``cumsum``.  Zero rows or columns are
    allowed (there can then be no entries).
    """
    keys = major * n_minor + minor
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    summed = np.add.reduceat(data[order], starts)
    major_ids, indices = np.divmod(keys[starts], n_minor)
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(np.bincount(major_ids, minlength=n_major), out=indptr[1:])
    return indptr, indices, summed


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate format.

    Parameters
    ----------
    shape:
        ``(m, n)`` logical dimensions.
    rows, cols:
        Integer arrays of length ``nnz`` with the coordinates of every
        stored entry.  Duplicates are allowed until :meth:`deduplicate`
        is called (duplicates are summed, matching the usual COO
        convention).  Either dimension may be zero.
    data:
        Float array of length ``nnz`` with the stored values.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.data.shape):
            raise ValueError(
                "rows, cols and data must have identical shapes, got "
                f"{self.rows.shape}, {self.cols.shape}, {self.data.shape}"
            )
        if self.rows.ndim != 1:
            raise ValueError("COO buffers must be one-dimensional")
        m, n = self.shape
        if m < 0 or n < 0:
            raise ValueError(f"shape must be non-negative, got {self.shape}")
        if self.nnz:
            if self.rows.min() < 0 or self.rows.max() >= m:
                raise ValueError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= n:
                raise ValueError("column index out of bounds")

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries (including any duplicates)."""
        return int(self.data.shape[0])

    @property
    def density(self) -> float:
        """Fraction of cells that are stored, ``nnz / (m * n)`` (0.0 with no cells)."""
        m, n = self.shape
        return self.nnz / float(m * n) if m * n else 0.0

    def copy(self) -> "COOMatrix":
        """Deep copy of all three buffers."""
        return COOMatrix(self.shape, self.rows.copy(), self.cols.copy(), self.data.copy())

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, dense: np.ndarray, *, keep_zeros: bool = False) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array.

        Zeros are dropped unless ``keep_zeros`` is set (explicit zeros are
        occasionally useful in tests).
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        if keep_zeros:
            rows, cols = np.indices(dense.shape)
            rows, cols = rows.ravel(), cols.ravel()
        else:
            rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        """A matrix with the given shape and no stored entries."""
        zero = np.zeros(0, dtype=np.int64)
        return cls(shape, zero, zero.copy(), np.zeros(0, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def deduplicate(self) -> "COOMatrix":
        """Return a copy where duplicate coordinates have been summed, in row-major order."""
        return self.to_csr().to_coo()

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (rows and columns swapped)."""
        m, n = self.shape
        return COOMatrix((n, m), self.cols.copy(), self.rows.copy(), self.data.copy())

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (sums duplicates)."""
        out = np.zeros(self.shape, dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.data)
        return out

    def to_csr(self):
        """Compress into :class:`repro.sparse.CSRMatrix` (sums duplicates)."""
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix.from_coo(self)

    def to_csc(self):
        """Compress into :class:`repro.sparse.CSCMatrix` (sums duplicates)."""
        from repro.sparse.csc import CSCMatrix

        return CSCMatrix.from_coo(self)

    # ------------------------------------------------------------------ #
    # sampling / splitting
    # ------------------------------------------------------------------ #
    def sample(self, fraction: float, rng: np.random.Generator) -> tuple["COOMatrix", "COOMatrix"]:
        """Split entries uniformly at random into (held-in, held-out).

        Used for train/test splits of rating matrices.  ``fraction`` is the
        held-out proportion.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        mask = rng.random(self.nnz) < fraction
        held_out = COOMatrix(self.shape, self.rows[mask], self.cols[mask], self.data[mask])
        held_in = COOMatrix(self.shape, self.rows[~mask], self.cols[~mask], self.data[~mask])
        return held_in, held_out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        m, n = self.shape
        return f"COOMatrix(shape=({m}, {n}), nnz={self.nnz})"
