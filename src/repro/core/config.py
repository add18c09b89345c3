"""Configuration and result containers shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.validation import validate_hyperparameters

__all__ = ["ALSConfig", "IterationStats", "FitResult"]


@dataclass(frozen=True)
class ALSConfig:
    """Hyper-parameters and optimisation switches of a cuMF run.

    Attributes
    ----------
    f:
        Latent-feature dimension (Table 2: 5 to 100s).
    lam:
        Regularization constant λ of eq. (1); the weighted-λ scheme
        multiplies it by the per-row/column rating counts.
    iterations:
        Number of ALS iterations; each consists of one update-X and one
        update-Θ pass (the paper observes 5–20 suffice).
    seed:
        RNG seed for the factor initialisation (paper: uniform in [0, 1]).
    use_registers:
        MO-ALS switch: accumulate the per-row Hermitian in the register
        file (Algorithm 2 line 8) instead of shared memory — Figure 7.
    use_texture:
        MO-ALS switch: read Θᵀ through the texture cache (Algorithm 2
        line 3) instead of plain global loads — Figure 8.
    bin_size:
        Number of θ columns staged per shared-memory tile (Algorithm 2
        lines 5-10; the paper uses 10-30).
    row_batch:
        How many rows of X/Θ each kernel launch covers on the *numerics*
        side.  It sets the MO-ALS batch structure, and with it simulated
        time, and bounds the host memory of one block's Hermitians.
    init_scale:
        Scale of the uniform [0, init_scale) factor initialisation.
    dtype:
        Storage dtype of the factor matrices.
    """

    f: int = 16
    lam: float = 0.05
    iterations: int = 10
    seed: int = 0
    use_registers: bool = True
    use_texture: bool = True
    bin_size: int = 20
    row_batch: int = 2048
    init_scale: float = 1.0
    dtype: type = np.float64

    def __post_init__(self) -> None:
        validate_hyperparameters(
            f=self.f,
            lam=self.lam,
            iterations=self.iterations,
            bin_size=self.bin_size,
            row_batch=self.row_batch,
            init_scale=self.init_scale,
        )

    def with_(self, **changes) -> "ALSConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class IterationStats:
    """Convergence record of one ALS iteration."""

    iteration: int
    train_rmse: float
    test_rmse: float
    seconds: float
    cumulative_seconds: float
    objective: float = float("nan")

    def as_dict(self) -> dict:
        """Plain-dict view (for printing / CSV dumps)."""
        return {
            "iteration": self.iteration,
            "train_rmse": self.train_rmse,
            "test_rmse": self.test_rmse,
            "seconds": self.seconds,
            "cumulative_seconds": self.cumulative_seconds,
            "objective": self.objective,
        }


@dataclass
class FitResult:
    """Outcome of a solver run: factors plus the convergence history.

    ``config`` carries whichever config family produced the run —
    :class:`ALSConfig`, the baselines' ``SGDConfig``/``CCDConfig``, or
    ``None``; downstream consumers (e.g. the serving tier picking up
    ``lam`` for fold-ins) only rely on the shared field names.
    """

    x: np.ndarray
    theta: np.ndarray
    history: list = field(default_factory=list)
    solver: str = ""
    config: object | None = None
    breakdown: dict = field(default_factory=dict)

    @property
    def final_test_rmse(self) -> float:
        """Test RMSE after the last iteration (NaN if no history)."""
        return self.history[-1].test_rmse if self.history else float("nan")

    @property
    def final_train_rmse(self) -> float:
        """Training RMSE after the last iteration (NaN if no history)."""
        return self.history[-1].train_rmse if self.history else float("nan")

    @property
    def total_seconds(self) -> float:
        """Total (simulated or wall-clock) training time."""
        return self.history[-1].cumulative_seconds if self.history else 0.0

    def time_to_rmse(self, target: float) -> float:
        """First cumulative time at which test RMSE drops to ``target``.

        Returns ``inf`` if the run never reaches the target — the metric
        used throughout §5 ("measured at RMSE 0.92").
        """
        for stats in self.history:
            if stats.test_rmse <= target:
                return stats.cumulative_seconds
        return float("inf")

    def iterations_to_rmse(self, target: float) -> int:
        """Number of iterations needed to reach ``target`` test RMSE (or -1)."""
        for stats in self.history:
            if stats.test_rmse <= target:
                return stats.iteration
        return -1
