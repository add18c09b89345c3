"""Registry of the matrix-factorization workloads used in the paper.

Table 5 ("Data sets") lists the problem sizes; Figure 2 plots them as
``Nz`` against the model size ``(m + n) · f``.  The registry keeps the
full-scale numbers (used by the analytical experiments, the partition
planner and the cost model) and can derive scaled-down variants that are
actually factorized in tests and convergence benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.validation import require

__all__ = [
    "DatasetSpec",
    "NETFLIX",
    "YAHOOMUSIC",
    "HUGEWIKI",
    "SPARKALS",
    "FACTORBIRD",
    "FACEBOOK",
    "CUMF_LARGEST",
    "DATASETS",
    "get_dataset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Size and hyper-parameters of one MF workload (one Table-5 row).

    Attributes
    ----------
    name:
        Workload name as used in the paper.
    m, n:
        Rating-matrix dimensions (users × items).
    nz:
        Number of observed ratings.
    f:
        Latent-feature dimension used in the paper's runs.
    lam:
        Regularization constant λ.
    kind:
        ``"public"`` for the real datasets, ``"synthetic"`` for the
        industry-scale constructions.
    rating_scale:
        ``(low, high)`` range of rating values for the generator.
    """

    name: str
    m: int
    n: int
    nz: int
    f: int
    lam: float
    kind: str = "public"
    rating_scale: tuple[float, float] = (1.0, 5.0)

    @property
    def shape(self) -> tuple[int, int]:
        """``(m, n)``; with ``nnz`` and ``range_nnz`` it sizes update graphs like a rating matrix."""
        return (self.m, self.n)

    @property
    def nnz(self) -> int:
        """``Nz``, under the rating matrix's name for it."""
        return self.nz

    def range_nnz(self, start_row: int, stop_row: int) -> float:
        """Ratings in rows ``[start_row, stop_row)`` at the uniform rate ``Nz / m``."""
        return self.nz * (stop_row - start_row) / self.m

    def transposed(self) -> "DatasetSpec":
        """The same workload seen from the item side (the update-Θ pass)."""
        return replace(self, m=self.n, n=self.m)

    @property
    def model_parameters(self) -> int:
        """Size of the factor model, ``(m + n) · f`` (the Figure 2 x-axis)."""
        return (self.m + self.n) * self.f

    @property
    def density(self) -> float:
        """``Nz / (m · n)``."""
        return self.nz / (float(self.m) * float(self.n))

    @property
    def nnz_per_row(self) -> float:
        """Average ratings per user, ``Nz / m``."""
        return self.nz / float(self.m)

    @property
    def nnz_per_col(self) -> float:
        """Average ratings per item, ``Nz / n``."""
        return self.nz / float(self.n)

    def rating_bytes(self, bytes_per_value: int = 4) -> float:
        """Approximate CSR footprint of R in bytes (values + indices + indptr)."""
        return float(bytes_per_value) * (2 * self.nz + self.m + 1)

    def factor_bytes(self, bytes_per_value: int = 4) -> float:
        """Footprint of X and Θ together in bytes."""
        return float(bytes_per_value) * self.model_parameters

    def scaled(self, max_rows: int = 4000, min_cols: int = 64, f: int | None = None, name: str | None = None) -> "DatasetSpec":
        """A structurally similar workload small enough to factorize in tests.

        The scale factor ``s = max_rows / m`` is applied to ``m``, ``n`` and
        ``Nz²ᐟ³``-ish: rows and columns shrink linearly while the average
        ratings-per-row is preserved (so density *increases*, which keeps
        per-row work — the quantity the kernels care about — representative).
        """
        require(max_rows > 0, "max_rows must be positive")
        scale = min(1.0, max_rows / float(self.m))
        new_m = max(32, int(round(self.m * scale)))
        new_n = max(min_cols, int(round(self.n * scale)))
        per_row = min(self.nnz_per_row, new_n * 0.5)
        new_nz = int(min(new_m * per_row, 0.5 * new_m * new_n))
        new_nz = max(new_nz, new_m)  # keep at least one rating per row on average
        new_f = f if f is not None else min(self.f, 16)
        return replace(
            self,
            name=name or f"{self.name}-scaled",
            m=new_m,
            n=new_n,
            nz=new_nz,
            f=new_f,
            kind="synthetic",
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: m={self.m:,} n={self.n:,} Nz={self.nz:,} "
            f"f={self.f} λ={self.lam}"
        )


def _b(x: float) -> int:
    """Billions shorthand."""
    return int(round(x * 1e9))


def _m(x: float) -> int:
    """Millions shorthand."""
    return int(round(x * 1e6))


#: Netflix Prize: 480,189 users × 17,770 movies, 99M ratings, f=100, λ=0.05.
NETFLIX = DatasetSpec("Netflix", 480_189, 17_770, _m(99), 100, 0.05)

#: Yahoo! Music KDD-Cup'11: ~1M users × 625K songs, 252.8M ratings, λ=1.4.
YAHOOMUSIC = DatasetSpec("YahooMusic", 1_000_990, 624_961, int(252.8e6), 100, 1.4)

#: Hugewiki: 50M rows × 39,780 columns, 3.1B non-zeros.
HUGEWIKI = DatasetSpec("Hugewiki", 50_082_603, 39_780, _b(3.1), 100, 0.05)

#: SparkALS benchmark: 100-by-1 duplication of Amazon Reviews; f=10.
SPARKALS = DatasetSpec("SparkALS", _m(660), int(2.4e6), _b(3.5), 10, 0.05, kind="synthetic")

#: Factorbird: 229M × 195M, 38.5B ratings, f=5.
FACTORBIRD = DatasetSpec("Factorbird", _m(229), _m(195), _b(38.5), 5, 0.05, kind="synthetic")

#: Facebook: 1B users × 48M items, 112B ratings, f=16 (160-by-20 Amazon dup).
FACEBOOK = DatasetSpec("Facebook", _b(1.056), _m(48), _b(112), 16, 0.05, kind="synthetic")

#: The largest problem the paper reports: the Facebook matrix with f=100.
CUMF_LARGEST = DatasetSpec("cuMF", _b(1.056), _m(48), _b(112), 100, 0.05, kind="synthetic")

#: All Table-5 rows in paper order.
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (NETFLIX, YAHOOMUSIC, HUGEWIKI, SPARKALS, FACTORBIRD, FACEBOOK, CUMF_LARGEST)
}


def get_dataset(name: str) -> DatasetSpec:
    """Look a workload up by (case-insensitive) name."""
    for key, spec in DATASETS.items():
        if key.lower() == name.lower():
            return spec
    raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")


def figure2_catalogue() -> list[dict]:
    """The (model size, Nz) points of Figure 2, one dict per workload."""
    rows = []
    for spec in DATASETS.values():
        rows.append(
            {
                "name": spec.name,
                "model_parameters": spec.model_parameters,
                "nz": spec.nz,
                "log10_model_parameters": math.log10(spec.model_parameters),
                "log10_nz": math.log10(spec.nz),
            }
        )
    return rows
