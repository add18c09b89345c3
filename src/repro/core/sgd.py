"""The SGD update rule of eq. (4), as a reference kernel.

The paper contrasts ALS with stochastic gradient descent: SGD visits one
rating ``r_uv`` at a time and applies

``x_u ← x_u − α[(x_uᵀθ_v − r_uv)θ_v + λ x_u]``
``θ_v ← θ_v − α[(x_uᵀθ_v − r_uv)x_u + λ θ_v]``

Updates of two ratings sharing a row (or column) are *not* independent,
which is why cuMF picks ALS for thousands of GPU cores (§2.1).  This
module provides the sequential epoch primitive; the multi-core SGD
baselines (libMF / NOMAD / DSGD-style) in :mod:`repro.baselines` run it
on each private rating block of their block-parallel schedules.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["sgd_epoch"]


def sgd_epoch(
    ratings: CSRMatrix,
    x: np.ndarray,
    theta: np.ndarray,
    lr: float,
    lam: float,
    rng: np.random.Generator,
    shuffle: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """One full pass over all ratings in random order; updates in place.

    Returns the (same) ``x`` and ``theta`` arrays for convenience.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    rows = ratings.row_ids()
    cols = ratings.indices
    vals = ratings.data
    order = rng.permutation(ratings.nnz) if shuffle else np.arange(ratings.nnz)
    for k in order:
        u = rows[k]
        v = cols[k]
        err = float(x[u] @ theta[v]) - vals[k]
        xu = x[u].copy()
        x[u] -= lr * (err * theta[v] + lam * xu)
        theta[v] -= lr * (err * xu + lam * theta[v])
    return x, theta
