"""Cold-start fold-in: solve a new user's factor against frozen Θ.

A user who arrives after training has a handful of ratings but no row in
X.  Holding Θ fixed, their factor is the solution of the same normal
equations ALS solves for every user row (eq. 2 of the paper):

``A_u = Σ_{r_uv ≠ 0} θ_v θ_vᵀ + λ n_u I``  and  ``B_u = Θᵀ Rᵀ_{u*}``,

so a fold-in reuses :func:`~repro.core.hermitian.compute_hermitians` and
:func:`~repro.core.hermitian.batch_solve` verbatim and is numerically
identical to one Base-ALS user update on the same ratings row — the
property the serving tests pin down to 1e-8.
"""

from __future__ import annotations

import numpy as np

from repro.core.hermitian import batch_solve, compute_hermitians
from repro.sparse.csr import CSRMatrix

__all__ = ["fold_in_user", "fold_in_users", "validate_ratings"]


def validate_ratings(items: np.ndarray, ratings: np.ndarray, n_items: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Coerce aligned ``(items, ratings)`` event arrays to ``(int64, float64)``.

    This is the one validation gate every rating-ingest path shares —
    :func:`fold_in_user`, :meth:`FactorStore.fold_in` and
    :class:`~repro.serving.lifecycle.InteractionLog.record` — so bad
    input fails identically everywhere: items must be 1-D integer
    indices aligned with finite ratings, non-negative, and (when
    ``n_items`` is given) within range.  Duplicate item ids are
    *allowed* here; the downstream CSR construction sums them, matching
    the deduplication the trainer applies to its input.
    """
    items = np.asarray(items)
    ratings = np.asarray(ratings, dtype=np.float64)
    if items.shape != ratings.shape or items.ndim != 1:
        raise ValueError("items and ratings must be aligned 1-D arrays")
    if items.size and not np.issubdtype(items.dtype, np.integer):
        raise ValueError(f"items must be integer indices, got dtype {items.dtype}")
    if not np.isfinite(ratings).all():
        raise ValueError("ratings must be finite (no NaN or inf)")
    items = items.astype(np.int64, copy=False)
    if n_items is not None:
        if items.size and (items.min() < 0 or items.max() >= n_items):
            raise ValueError(f"item index out of range for {n_items} items")
    elif items.size and items.min() < 0:
        raise ValueError("item indices must be non-negative")
    return items, ratings


def fold_in_users(rows: CSRMatrix, theta: np.ndarray, lam: float, weighted: bool = True) -> np.ndarray:
    """Solve one factor per row of ``rows`` against the frozen ``theta``.

    ``rows`` is a ``(b, n_items)`` CSR matrix holding the new users'
    ratings; the result has shape ``(b, f)``.  Users with no ratings get
    the zero factor (the regularized solution of an empty system).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if rows.shape[1] != theta.shape[0]:
        raise ValueError(f"ratings have {rows.shape[1]} items but theta has {theta.shape[0]} rows")
    a, b = compute_hermitians(rows, theta, lam, weighted=weighted)
    return batch_solve(a, b)


def fold_in_user(
    items: np.ndarray,
    ratings: np.ndarray,
    theta: np.ndarray,
    lam: float,
    weighted: bool = True,
) -> np.ndarray:
    """Fold in a single user from aligned ``(items, ratings)`` arrays.

    Returns the ``(f,)`` factor vector.  Duplicate item ids are summed,
    matching the CSR deduplication the trainer applies to its input.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.shape[0]
    items, ratings = validate_ratings(items, ratings, n)
    row = CSRMatrix.from_arrays((1, n), np.zeros_like(items), items, ratings)
    return fold_in_users(row, theta, lam, weighted=weighted)[0]
