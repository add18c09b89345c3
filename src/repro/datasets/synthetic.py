"""Synthetic rating-matrix generator.

The generator produces matrices with the three structural properties that
drive MF convergence and kernel behaviour:

* a **low-rank ground truth** ``R* = X* Θ*ᵀ`` of chosen true rank, so that
  factorization actually has signal to recover and test RMSE decreases the
  way Figures 6-10 show;
* **additive Gaussian noise** controlling the attainable RMSE floor;
* **power-law row/column activity**, matching the skew of real
  recommendation data (a few very active users / popular items) that the
  paper calls out when discussing partitioning ("ratings are skewed").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.registry import DatasetSpec
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

__all__ = ["SyntheticRatings", "powerlaw_weights", "generate_ratings"]


@dataclass
class SyntheticRatings:
    """A generated workload: training matrix, test matrix, and ground truth."""

    spec: DatasetSpec
    train: CSRMatrix
    test: CSRMatrix
    true_x: np.ndarray
    true_theta: np.ndarray
    noise_sigma: float

    @property
    def shape(self) -> tuple[int, int]:
        """Rating-matrix shape."""
        return self.train.shape

    def rmse_floor(self) -> float:
        """Approximate best attainable test RMSE (the noise level)."""
        return self.noise_sigma


def powerlaw_weights(size: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Normalised sampling weights ``w_i ∝ rank_i^{-exponent}``, shuffled.

    ``exponent = 0`` gives uniform activity; 0.6–1.0 reproduces the heavy
    skew of real rating data.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks**-exponent
    rng.shuffle(weights)
    return weights / weights.sum()


def _sample_coordinates(m: int, n: int, nnz: int, rng: np.random.Generator, row_exponent: float, col_exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``nnz`` distinct (row, col) coordinates with skewed activity."""
    row_w = powerlaw_weights(m, row_exponent, rng)
    col_w = powerlaw_weights(n, col_exponent, rng)
    target = min(nnz, m * n)
    rows = np.empty(0, dtype=np.int64)
    cols = np.empty(0, dtype=np.int64)
    seen: set[int] = set()
    # Rejection-sample in rounds until we have enough distinct coordinates.
    while rows.size < target:
        need = int((target - rows.size) * 1.3) + 16
        cand_rows = rng.choice(m, size=need, p=row_w)
        cand_cols = rng.choice(n, size=need, p=col_w)
        keys = cand_rows * n + cand_cols
        fresh_mask = np.fromiter((k not in seen for k in keys), dtype=bool, count=need)
        # also drop duplicates inside this round
        _, first_idx = np.unique(keys, return_index=True)
        round_mask = np.zeros(need, dtype=bool)
        round_mask[first_idx] = True
        mask = fresh_mask & round_mask
        for k in keys[mask]:
            seen.add(int(k))
        rows = np.concatenate([rows, cand_rows[mask]])
        cols = np.concatenate([cols, cand_cols[mask]])
    return rows[:target], cols[:target]


def generate_ratings(
    spec: DatasetSpec,
    seed: int = 0,
    true_rank: int | None = None,
    noise_sigma: float = 0.25,
    test_fraction: float = 0.1,
    row_exponent: float = 0.7,
    col_exponent: float = 0.7,
    ensure_coverage: bool = True,
) -> SyntheticRatings:
    """Generate a synthetic workload matching ``spec``'s m, n and Nz.

    Parameters
    ----------
    spec:
        Target sizes (use :meth:`DatasetSpec.scaled` first for anything
        that must actually fit in host memory).
    true_rank:
        Rank of the ground-truth factors; defaults to ``min(spec.f, 10)``.
    noise_sigma:
        Standard deviation of the additive observation noise.
    test_fraction:
        Fraction of observed ratings held out for the test RMSE.
    row_exponent, col_exponent:
        Power-law skew of user / item activity.
    ensure_coverage:
        Guarantee at least one *training* rating in every row and column
        (keeps the weighted-λ normal equations well posed everywhere, like
        the real datasets effectively are).
    """
    if spec.m * spec.n > 5e8:
        raise ValueError(f"refusing to densely generate {spec.name}: {spec.m}x{spec.n} is full scale; call spec.scaled(...) first")
    rng = np.random.default_rng(seed)
    rank = true_rank if true_rank is not None else max(2, min(spec.f, 10))

    true_x = rng.normal(0.0, 1.0 / np.sqrt(rank), size=(spec.m, rank))
    true_theta = rng.normal(0.0, 1.0 / np.sqrt(rank), size=(spec.n, rank))

    rows, cols = _sample_coordinates(spec.m, spec.n, spec.nz, rng, row_exponent, col_exponent)

    if ensure_coverage:
        missing_rows = np.setdiff1d(np.arange(spec.m), rows, assume_unique=False)
        if missing_rows.size:
            extra_cols = rng.integers(0, spec.n, size=missing_rows.size)
            rows = np.concatenate([rows, missing_rows])
            cols = np.concatenate([cols, extra_cols])
        missing_cols = np.setdiff1d(np.arange(spec.n), cols, assume_unique=False)
        if missing_cols.size:
            extra_rows = rng.integers(0, spec.m, size=missing_cols.size)
            rows = np.concatenate([rows, extra_rows])
            cols = np.concatenate([cols, missing_cols])

    low, high = spec.rating_scale
    centre = 0.5 * (low + high)
    spread = 0.5 * (high - low)
    raw = np.einsum("ij,ij->i", true_x[rows], true_theta[cols])
    values = centre + spread * np.tanh(raw) + rng.normal(0.0, noise_sigma, size=raw.shape)
    values = np.clip(values, low, high)

    coo = COOMatrix((spec.m, spec.n), rows, cols, values).deduplicate()

    # Hold out a test split, but never the coverage entries (a row's only
    # rating must stay in training).
    rng_split = np.random.default_rng(seed + 1)
    mask = rng_split.random(coo.nnz) < test_fraction
    if ensure_coverage:
        train_rows = coo.rows[~mask]
        train_cols = coo.cols[~mask]
        row_ok = np.isin(coo.rows, train_rows)
        col_ok = np.isin(coo.cols, train_cols)
        mask &= row_ok & col_ok
    test = COOMatrix(coo.shape, coo.rows[mask], coo.cols[mask], coo.data[mask])
    train = COOMatrix(coo.shape, coo.rows[~mask], coo.cols[~mask], coo.data[~mask])

    return SyntheticRatings(
        spec=spec,
        train=train.to_csr(),
        test=test.to_csr(),
        true_x=true_x,
        true_theta=true_theta,
        noise_sigma=noise_sigma,
    )
