"""Partitioning primitives for SU-ALS (Algorithm 3).

SU-ALS splits the problem three ways (paper §4.1, lines 2-4 of Algorithm 3):

* ``Θᵀ`` is split **vertically** (by columns of R / rows of Θ) into ``p``
  partitions, one per GPU → data parallelism.
* ``X`` is split **horizontally** (by rows of R) into ``q`` batches →
  model parallelism.
* ``R`` is **grid partitioned** into ``p × q`` blocks ``R^(ij)`` following
  the two schemes above.

The helpers below compute even partition boundaries and materialise the
corresponding sparse blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.coo import _stable_order
from repro.sparse.csr import CSRMatrix

__all__ = [
    "Partition1D",
    "GridPartition",
    "partition_bounds",
    "grid_partition",
]


def partition_bounds(extent: int, parts: int) -> np.ndarray:
    """Even split of ``range(extent)`` into ``parts`` contiguous chunks.

    Returns an array of ``parts + 1`` boundaries; chunk ``i`` is
    ``[bounds[i], bounds[i + 1])``.  The first ``extent % parts`` chunks get
    one extra element, matching the "evenly split" wording of the paper.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if extent < 0:
        raise ValueError("extent must be non-negative")
    base, extra = divmod(extent, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


@dataclass
class Partition1D:
    """A one-dimensional contiguous partition of ``extent`` into ``parts`` chunks."""

    extent: int
    parts: int
    bounds: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bounds is None:
            self.bounds = partition_bounds(self.extent, self.parts)
        self.bounds = np.asarray(self.bounds, dtype=np.int64)
        if self.bounds.shape != (self.parts + 1,):
            raise ValueError("bounds must have parts + 1 entries")
        if self.bounds[0] != 0 or self.bounds[-1] != self.extent:
            raise ValueError("bounds must cover [0, extent]")

    def range_of(self, i: int) -> tuple[int, int]:
        """``[start, stop)`` of chunk ``i``."""
        return int(self.bounds[i]), int(self.bounds[i + 1])

    def size_of(self, i: int) -> int:
        """Number of elements in chunk ``i``."""
        lo, hi = self.range_of(i)
        return hi - lo

    def owner_of(self, index: int) -> int:
        """Chunk id that owns global ``index``."""
        if not 0 <= index < self.extent:
            raise IndexError(index)
        return int(np.searchsorted(self.bounds, index, side="right") - 1)

    def sizes(self) -> np.ndarray:
        """All chunk sizes."""
        return np.diff(self.bounds)

    def __len__(self) -> int:
        return self.parts


@dataclass
class GridPartition:
    """The ``p × q`` grid partition of R used by SU-ALS.

    ``blocks[i][j]`` is ``R^(ij)``: the rows of X batch ``j`` restricted to
    the columns owned by GPU ``i``.  Row indices inside a block are re-based
    to the batch, column indices to the GPU's Θ partition.
    """

    row_partition: Partition1D
    col_partition: Partition1D
    blocks: list[list[CSRMatrix]]

    @property
    def p(self) -> int:
        """Number of column (Θ / GPU) partitions."""
        return len(self.col_partition)

    @property
    def q(self) -> int:
        """Number of row (X batch) partitions."""
        return len(self.row_partition)

    def block(self, i: int, j: int) -> CSRMatrix:
        """``R^(ij)``: column partition ``i``, row batch ``j``."""
        return self.blocks[i][j]


def grid_partition(r: CSRMatrix, p: int, q: int) -> GridPartition:
    """Grid-partition R into ``p`` column blocks × ``q`` row batches.

    This is ``GridPartition(R, p, q)`` of Algorithm 3 line 4.  Each row
    batch is a contiguous range of R's entries; one ``searchsorted`` finds
    every entry's column owner and one :func:`~repro.sparse.coo._stable_order`
    of the owners (a packed value sort, equal to a stable ``argsort``)
    lays the batch out block after block.  Stability keeps the entries of
    each block in R's row-major order, so column indices stay sorted
    within rows whenever they are in R (every constructor but the raw one
    sorts them).
    """
    row_part = Partition1D(r.shape[0], q)
    col_part = Partition1D(r.shape[1], p)
    blocks: list[list[CSRMatrix]] = [[] for _ in range(p)]
    for j in range(q):
        lo, hi = row_part.range_of(j)
        rows = hi - lo
        start, stop = r.indptr[lo], r.indptr[hi]
        cols = r.indices[start:stop]
        owner = np.searchsorted(col_part.bounds, cols, side="right") - 1
        block_owner, order = _stable_order(owner, p)
        # Entries per (owner, row): row u of block i spans indptrs[i, u:u + 2].
        row_ids = np.repeat(np.arange(rows, dtype=np.int64), np.diff(r.indptr[lo : hi + 1]))
        indptrs = np.zeros((p, rows + 1), dtype=np.int64)
        np.cumsum(np.bincount(owner * rows + row_ids, minlength=p * rows).reshape(p, rows), axis=1, out=indptrs[:, 1:])
        block_cols = cols[order] - col_part.bounds[block_owner]
        block_data = r.data[start:stop][order]
        offsets = np.concatenate(([0], np.cumsum(indptrs[:, -1])))
        for i in range(p):
            seg = slice(offsets[i], offsets[i + 1])
            blocks[i].append(CSRMatrix((rows, col_part.size_of(i)), indptrs[i], block_cols[seg], block_data[seg]))
    return GridPartition(row_part, col_part, blocks)
