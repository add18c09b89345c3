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

The sort is :func:`_stable_order`: each key is packed with its position
into one distinct int64, ``key * size + position``, the packed values are
sorted with ``np.sort`` (NumPy's vectorised value sort), and one
``divmod`` gives back the sorted keys and the permutation, bit for bit
those of a stable ``argsort``.  NumPy's stable int64 ``argsort`` is
timsort, which on 250k shuffled keys takes ~41 ms against ~5 ms for the
whole packed path (one core of a 2-vCPU x86_64 VM, NumPy 2.4); it is
kept only as the fallback for a key range too wide to pack.  Timsort was
linear on entries already in order (a split of a canonical matrix, the
refresh merge's sorted base plus a short log tail), the packed sort is
not: those builds cost about 1 ms more at 100k entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["COOMatrix"]


_INT64_MAX = int(np.iinfo(np.int64).max)


def _stable_order(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """``(keys[order], order)`` with ``order = np.argsort(keys, kind="stable")``.

    ``keys`` are int64 values in ``[0, n_keys)``.  Each key is packed with
    its position into the distinct int64 ``key * size + position``; one
    ``np.sort`` of those values and one ``divmod`` give the sorted keys and
    the stable order bit for bit.  When ``n_keys * size`` does not fit in
    int64 (Python ints decide), the stable argsort runs instead.
    """
    size = keys.size
    if int(n_keys) * size - 1 > _INT64_MAX:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = keys * size
    packed += np.arange(size)
    packed.sort()
    order = np.empty_like(packed)
    np.divmod(packed, size, out=(packed, order))  # the keys overwrite their packed values
    return packed, order


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Positions where a run of equal ``sorted_keys`` begins."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def _compress(major: np.ndarray, minor: np.ndarray, data: np.ndarray, n_major: int, n_minor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical ``(indptr, indices, data)`` of the triplets, duplicates summed.

    ``major``/``minor`` are int64 coordinates below ``n_major``/``n_minor``
    (rows/columns for CSR, columns/rows for CSC).  One :func:`_stable_order`
    of the linear key ``major * n_minor + minor``, run starts from one
    comparison of neighbouring keys, ``np.add.reduceat`` over the runs and
    ``indptr`` from ``bincount`` + ``cumsum``.  Zero rows or columns are
    allowed (there can then be no entries); a shape with more cells than
    int64 keys can number raises ``ValueError`` instead of wrapping.
    """
    n_keys = int(n_major) * int(n_minor)
    if n_keys - 1 > _INT64_MAX:
        raise ValueError(f"a {n_major} x {n_minor} matrix has {n_keys} cells, more than int64 linear keys can number")
    keys, order = _stable_order(major * n_minor + minor, n_keys)
    starts = _run_starts(keys)
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
            raise ValueError(f"rows, cols and data must have identical shapes, got {self.rows.shape}, {self.cols.shape}, {self.data.shape}")
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
