"""Correctness oracles: plain-NumPy references the benchmark checks outputs against.

Every oracle returns a list of failure messages; an empty list passes.
None of them calls into :mod:`repro` — they read raw arrays only, so a
bug in the program cannot also corrupt its own reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["als", "identical_factors", "identical_reports", "lifecycle_round", "rmse", "same_fit", "topk"]


def _solve_rows(rows, others, ratings, fixed, lam, n) -> np.ndarray:
    """Every row's weighted-λ normal equations ``(Yᵀ Y + λ n I) w = Yᵀ r`` against the ``fixed`` side.

    ``Y`` holds the ``fixed`` rows the row rated and ``n`` their count;
    a row without ratings solves to 0.
    """
    f = fixed.shape[1]
    a = np.broadcast_to(np.eye(f), (n, f, f)).copy()
    b = np.zeros((n, f))
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(n + 1))
    for row in range(n):
        rated = order[bounds[row] : bounds[row + 1]]
        if rated.size:
            y = fixed[others[rated]]
            a[row] = y.T @ y + lam * rated.size * np.eye(f)
            b[row] = y.T @ ratings[rated]
    return np.linalg.solve(a, b[:, :, None])[:, :, 0]


def als(users, items, ratings, shape, x0, theta0, lam, iterations) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-λ ALS from ``(x0, theta0)`` on COO training arrays: X, then Θ, ``iterations`` times."""
    x, theta = x0, theta0
    for _ in range(iterations):
        x = _solve_rows(users, items, ratings, theta, lam, shape[0])
        theta = _solve_rows(items, users, ratings, x, lam, shape[1])
    return x, theta


def rmse(users, items, ratings, x, theta) -> float:
    """Root-mean-square error of ``x θᵀ`` on COO arrays."""
    predicted = np.einsum("kf,kf->k", x[users], theta[items])
    return float(np.sqrt(np.mean((ratings - predicted) ** 2)))


def same_fit(factors, test_rmse: float, want, want_rmse: float, tol=1e-8, rmse_tol=1e-6) -> list[str]:
    """The program's ``(x, theta)`` and test RMSE against the oracle's: factors to ``tol``, RMSE to ``rmse_tol`` relative."""
    failures = []
    for name, got, ref in zip(("x", "theta"), factors, want):
        err = float(np.abs(got - ref).max())
        if not err <= tol:  # also catches NaN
            failures.append(f"{name} differs from the plain-NumPy ALS by {err:.3e} (> {tol:g})")
    if not abs(test_rmse / want_rmse - 1.0) <= rmse_tol:
        failures.append(f"test RMSE {test_rmse!r} differs from the plain-NumPy ALS's {want_rmse!r} by more than {rmse_tol:g} relative")
    return failures


def identical_factors(reference, factors, label: str) -> list[str]:
    """Bitwise equality of ``(x, theta)`` pairs (repeated fits must not drift)."""
    return [
        f"{label}: {name} differs bitwise from the first fit"
        for name, ref, got in zip(("x", "theta"), reference, factors)
        if not np.array_equal(ref, got)
    ]


def identical_reports(reference: tuple, report: tuple, label: str) -> list[str]:
    """Deterministic simulated report fields must repeat exactly."""
    if reference != report:
        return [f"{label}: simulated report differs from the reference pass"]
    return []


def topk(returned, scores, seen, k: int, label: str, tol=1e-5) -> list[str]:
    """Exact top-``k`` with ``seen`` items masked, against float64 ``scores``.

    ``returned`` is the program's ``[(item, score), ...]``.  Ids must
    equal the oracle's ranking; two ids may only trade places when their
    oracle scores tie within ``tol`` (the program scores in float32).
    Returned scores must match the oracle to ``tol`` relative.
    """
    masked = np.array(scores, dtype=np.float64)
    masked[np.asarray(seen, dtype=np.int64)] = -np.inf
    want = np.argsort(-masked, kind="stable")[: min(k, int(np.isfinite(masked).sum()))]
    ids = np.array([item for item, _ in returned], dtype=np.int64)
    vals = np.array([score for _, score in returned], dtype=np.float64)
    scale = tol * max(1.0, float(np.abs(masked[want]).max()) if want.size else 1.0)
    if ids.size != want.size or np.unique(ids).size != ids.size or np.any((ids < 0) | (ids >= masked.size)):
        return [f"{label}: expected {want.size} distinct valid items, got {ids.tolist()}"]
    if not np.all(np.isfinite(masked[ids])):
        return [f"{label}: returned a seen item"]
    if np.any(np.abs(vals - masked[ids]) > scale):
        return [f"{label}: returned scores differ from the oracle by more than {scale:.2e}"]
    if not np.array_equal(ids, want) and (
        np.any(np.diff(vals) > scale) or masked[ids].min() < masked[want[-1]] - scale
    ):
        return [f"{label}: top-{k} ids {ids.tolist()} != oracle {want.tolist()}"]
    return []


def lifecycle_round(index: int, report, errors: int, latest_version, versions, label: str) -> list[str]:
    """One lifecycle round: no stale cache hit, no drop, no error, one new version served."""
    failures = []
    stale = report.cache.get("stale_hits", 0)
    if stale:
        failures.append(f"{label}: {stale} stale cache hits")
    if report.n_dropped:
        failures.append(f"{label}: {report.n_dropped} queries dropped during the rollout")
    if errors:
        failures.append(f"{label}: {errors} error envelopes")
    expected = index + 1
    if latest_version != expected or any(v != f"v{expected}" for v in versions):
        failures.append(f"{label}: expected every unit on v{expected}, registry head v{latest_version}, units {versions}")
    return failures
