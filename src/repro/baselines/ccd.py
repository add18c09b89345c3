"""CCD++ — cyclic coordinate descent for matrix factorization [32].

CCD++ updates one latent dimension at a time: with all other dimensions
fixed, the rank-one subproblem for feature ``k`` has the closed form

``x_uk ← (Σ_v R̂_uv θ_vk) / (λ n_{x_u} + Σ_v θ_vk²)``

over the residual ``R̂ = R − X Θᵀ + x_k θ_kᵀ``.  The paper cites CCD++ as
having lower per-iteration complexity than ALS but making less progress
per iteration ("behaves well in the early stage, then becomes slower than
libMF"), which is the behaviour the convergence benches compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.solver.protocol import Solver, SolverStep, apply_warm_start
from repro.core.validation import validate_hyperparameters
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import sampled_residual

__all__ = ["CCDConfig", "CCDPlusPlus"]


@dataclass(frozen=True)
class CCDConfig:
    """Hyper-parameters of the CCD++ baseline."""

    f: int = 16
    lam: float = 0.05
    iterations: int = 10
    inner_sweeps: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        validate_hyperparameters(
            f=self.f, lam=self.lam, iterations=self.iterations, inner_sweeps=self.inner_sweeps
        )


class CCDPlusPlus(Solver):
    """CCD++ with the one-dimension-at-a-time (rank-one) update order.

    Constructed from a :class:`CCDConfig` or the same loose keywords as
    before (``CCDPlusPlus(f=8, lam=0.05, iterations=4)``).
    """

    name = "ccd++"

    def __init__(
        self,
        f: int | CCDConfig | None = None,
        lam: float | None = None,
        iterations: int | None = None,
        inner_sweeps: int | None = None,
        seed: int | None = None,
        config: CCDConfig | None = None,
    ):
        if isinstance(f, CCDConfig):  # config passed positionally, like the other solvers
            if config is not None:
                raise ValueError("pass the config either positionally or as config=, not both")
            config, f = f, None
        if config is None:
            config = CCDConfig()
        loose = {
            key: value
            for key, value in
            dict(f=f, lam=lam, iterations=iterations, inner_sweeps=inner_sweeps, seed=seed).items()
            if value is not None
        }
        if loose:
            from dataclasses import replace

            config = replace(config, **loose)
        self.config = config

    @property
    def f(self) -> int:
        return self.config.f

    @property
    def lam(self) -> float:
        return self.config.lam

    @property
    def iterations(self) -> int:
        return self.config.iterations

    @property
    def inner_sweeps(self) -> int:
        return self.config.inner_sweeps

    @property
    def seed(self) -> int:
        return self.config.seed

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """Yield the starting factors, then one step per full rank-one sweep.

        Setup (index views, the incremental residual) happens before the
        initial yield, so it is not charged to iteration 1's seconds.
        """
        cfg = self.config
        m, n = train.shape
        rng = np.random.default_rng(cfg.seed)
        x, theta = apply_warm_start(
            rng.random((m, cfg.f)) * 0.1, rng.random((n, cfg.f)) * 0.1, x0, theta0
        )

        rows = train.row_ids()
        cols = train.indices
        n_xu = train.nnz_per_row().astype(np.float64)
        n_tv = train.nnz_per_col().astype(np.float64)

        # Residual at the observed entries, maintained incrementally.
        residual = sampled_residual(train, x, theta)
        yield SolverStep(x, theta)

        for _ in range(cfg.iterations):
            for _ in range(cfg.inner_sweeps):
                for k in range(cfg.f):
                    xk = x[:, k]
                    tk = theta[:, k]
                    # Add the rank-one term back: R_hat = residual + x_k θ_kᵀ (at observed entries).
                    rhat = residual + xk[rows] * tk[cols]
                    # Update x_k with θ_k fixed.
                    numer_x = np.bincount(rows, weights=rhat * tk[cols], minlength=m)
                    denom_x = cfg.lam * n_xu + np.bincount(rows, weights=tk[cols] ** 2, minlength=m)
                    new_xk = np.divide(numer_x, denom_x, out=np.zeros(m), where=denom_x > 0)
                    # Update θ_k with the new x_k fixed.
                    numer_t = np.bincount(cols, weights=rhat * new_xk[rows], minlength=n)
                    denom_t = cfg.lam * n_tv + np.bincount(cols, weights=new_xk[rows] ** 2, minlength=n)
                    new_tk = np.divide(numer_t, denom_t, out=np.zeros(n), where=denom_t > 0)
                    # Fold the updated rank-one term back into the residual.
                    residual = rhat - new_xk[rows] * new_tk[cols]
                    x[:, k] = new_xk
                    theta[:, k] = new_tk
            yield SolverStep(x, theta)
