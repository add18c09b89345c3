"""On-disk rating storage and chunked (out-of-core) reading.

cuMF's out-of-core mode (§4.4) streams rating partitions from a parallel
file system into host memory and then into the GPUs.  The helpers here
give the reproduction the same shape: `.npz` persistence for checkpoints
and datasets, and a row-chunk iterator that walks the matrix in X-batches
without ever holding the whole of it.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["save_ratings_npz", "load_ratings_npz", "iter_row_chunks"]


def save_ratings_npz(path: str | os.PathLike, ratings: CSRMatrix) -> None:
    """Persist a CSR matrix to a compressed ``.npz`` file (atomic write)."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    np.savez_compressed(
        tmp,
        m=np.int64(ratings.shape[0]),
        n=np.int64(ratings.shape[1]),
        indptr=ratings.indptr,
        indices=ratings.indices,
        data=ratings.data,
    )
    # np.savez appends .npz to the temp name; normalise before the rename.
    tmp_real = tmp if os.path.exists(tmp) else tmp + ".npz"
    os.replace(tmp_real, path)


def load_ratings_npz(path: str | os.PathLike) -> CSRMatrix:
    """Load a CSR matrix previously stored by :func:`save_ratings_npz`."""
    with np.load(os.fspath(path)) as blob:
        shape = (int(blob["m"]), int(blob["n"]))
        return CSRMatrix(shape, blob["indptr"], blob["indices"], blob["data"])


def iter_row_chunks(ratings: CSRMatrix, rows_per_chunk: int) -> Iterator[tuple[int, int, CSRMatrix]]:
    """Yield ``(start_row, stop_row, chunk)`` covering the matrix in order.

    Every chunk is an independent CSR matrix whose row indices are re-based
    to zero; together they tile the original matrix the way out-of-core
    cuMF feeds it to the GPUs, one X-batch at a time.
    """
    if rows_per_chunk <= 0:
        raise ValueError("rows_per_chunk must be positive")
    m = ratings.shape[0]
    start = 0
    while start < m:
        stop = min(start + rows_per_chunk, m)
        yield start, stop, ratings.row_slice(start, stop)
        start = stop
