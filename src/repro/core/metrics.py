"""Evaluation metrics: RMSE and the regularized objective of eq. (1)."""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import rmse_from_residual, sampled_residual

__all__ = ["rmse", "objective_value"]


def rmse(ratings: CSRMatrix, x: np.ndarray, theta: np.ndarray) -> float:
    """Root-mean-square error of ``X Θᵀ`` against the stored ratings.

    This is the metric of Figures 6-10 (test RMSE when ``ratings`` is the
    held-out matrix, training RMSE otherwise).
    """
    return rmse_from_residual(sampled_residual(ratings, x, theta))


def objective_value(ratings: CSRMatrix, x: np.ndarray, theta: np.ndarray, lam: float) -> float:
    """The weighted-λ-regularized cost J of eq. (1).

    ``J = Σ (r_uv − x_uᵀθ_v)² + λ (Σ_u n_{x_u} ||x_u||² + Σ_v n_{θ_v} ||θ_v||²)``
    where ``n_{x_u}`` / ``n_{θ_v}`` count the ratings of user ``u`` / item
    ``v`` (the weighted-λ-regularization of Zhou et al. adopted in §2.1).
    """
    residual = sampled_residual(ratings, x, theta)
    data_term = float(np.sum(residual**2))
    n_xu = ratings.nnz_per_row().astype(np.float64)
    n_tv = ratings.nnz_per_col().astype(np.float64)
    reg_x = float(np.sum(n_xu * np.sum(np.asarray(x) ** 2, axis=1)))
    reg_t = float(np.sum(n_tv * np.sum(np.asarray(theta) ** 2, axis=1)))
    return data_term + lam * (reg_x + reg_t)
