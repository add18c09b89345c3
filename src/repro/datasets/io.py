"""On-disk rating storage.

`.npz` persistence for checkpoints and datasets: an atomic compressed
write of the raw CSR buffers and the matching loader.
"""

from __future__ import annotations

import os

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["save_ratings_npz", "load_ratings_npz"]


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
