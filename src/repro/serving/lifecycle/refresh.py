"""Incremental model refresh: fold serving-time ratings back into the model.

A full retrain re-solves every row of X and Θ from scratch; most of that
work is wasted when only a sliver of users rated anything new.  The
refresh step instead:

1. merges the base training matrix with the
   :class:`~repro.serving.lifecycle.log.InteractionLog` delta (duplicate
   entries sum, exactly like the trainer's CSR deduplication), growing
   the user/item axes to cover fold-in users and brand-new items;
2. folds in **new items**: each item column that appeared after training
   gets a θ row solved against the frozen X — one Base-ALS item update,
   via the very same normal-equations kernels
   (:func:`~repro.core.hermitian.compute_hermitians` /
   :func:`~repro.core.hermitian.batch_solve`) training uses;
3. re-solves **only the affected user rows** (the users in the log,
   fold-ins included) against the frozen, item-extended Θ.

Because steps 2–3 run the training kernels on the merged matrix, every
refreshed row equals the corresponding row of a full
:func:`~repro.core.hermitian.update_factor` pass over the same inputs to
machine precision — the property the rollout benchmark pins to 1e-8.
Untouched rows keep their old factors; that is the incremental trade-off
(they were solved against the un-extended Θ) and the reason periodic
full retrains still happen.

A refresh is also runnable *as a training session*:
:func:`run_refresh_session` wraps the refresh step in a one-iteration
solver and drives it through
:class:`~repro.core.solver.session.TrainingSession`, so log-driven
refreshes emit the same callback hooks (``on_fit_start`` /
``on_iteration_end`` / ``on_fit_end``), RMSE-bearing history rows and
resume-friendly iteration numbering as any other training run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.config import FitResult
from repro.core.solver.protocol import Solver, SolverStep
from repro.core.solver.session import TrainingSession
from repro.serving.foldin import fold_in_users
from repro.serving.lifecycle.log import InteractionLog
from repro.sparse.csr import CSRMatrix

__all__ = [
    "RefreshResult",
    "merged_ratings",
    "refresh_factors",
    "run_refresh_session",
]


@dataclass(frozen=True)
class RefreshResult:
    """Outcome of one incremental refresh.

    ``ratings`` is the merged base+delta matrix the refreshed factors
    were solved against — it is the exclude matrix to serve the new
    snapshot with, and the base matrix of the *next* refresh.
    """

    x: np.ndarray
    theta: np.ndarray
    affected_users: np.ndarray
    new_items: np.ndarray
    ratings: CSRMatrix
    n_base_users: int
    n_base_items: int

    @property
    def n_new_users(self) -> int:
        """User rows added by this refresh (fold-ins and log newcomers)."""
        return int(self.x.shape[0] - self.n_base_users)

    @property
    def n_new_items(self) -> int:
        """Item rows added by this refresh."""
        return int(self.new_items.size)

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"refresh: {self.affected_users.size} user rows re-solved "
            f"({self.n_new_users} new), {self.n_new_items} items folded in; "
            f"model now {self.x.shape[0]} users x {self.theta.shape[0]} items"
        )


def merged_ratings(
    base: CSRMatrix,
    log: InteractionLog,
    n_users: int | None = None,
    n_items: int | None = None,
) -> CSRMatrix:
    """Merge the base training matrix with the log's delta.

    The result covers every id of either side (widened further by
    ``n_users`` / ``n_items``) and is canonical CSR: columns strictly
    ascending in each row.  Re-rating rule: every (user, item) entry of
    the base and every event of the log on that cell sum into one entry
    (see :class:`~repro.serving.lifecycle.log.InteractionLog`), so a
    user who rates one unrated item 5, then 1, then 2 gets one 8.0 entry.

    Cost: one :func:`~repro.sparse.coo._compress` of the base's entries
    followed by the ``t`` log events, i.e. one packed-key value sort of
    all ``nnz + t`` of them; the base's order is not exploited, which at
    ~108k entries costs about 1 ms against a merge.
    """
    users, items, ratings = log.arrays()
    m = max(base.shape[0], log.max_user() + 1, n_users or 0)
    n = max(base.shape[1], log.max_item() + 1, n_items or 0)
    return CSRMatrix.from_arrays(
        (m, n),
        np.concatenate([base.row_ids(), users]),
        np.concatenate([base.indices, items]),
        np.concatenate([base.data, ratings]),
    )


def _gather_rows(r: CSRMatrix, rows: np.ndarray) -> CSRMatrix:
    """Sub-CSR of the selected ``rows`` (kept in the given order)."""
    counts = np.diff(r.indptr)[rows]
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    take = np.arange(indptr[-1]) + np.repeat(r.indptr[rows] - indptr[:-1], counts)
    return CSRMatrix((rows.size, r.shape[1]), indptr, r.indices[take], r.data[take])


def refresh_factors(
    x: np.ndarray,
    theta: np.ndarray,
    base: CSRMatrix,
    log: InteractionLog,
    lam: float,
    weighted: bool = True,
) -> RefreshResult:
    """One incremental refresh of ``(x, theta)`` against the log's delta.

    ``base`` is the ratings matrix the factors were trained on; ``x``
    may already have more rows than ``base`` (users folded in at serving
    time — their ratings are expected in the log, or their rows are kept
    frozen).  Returns new factor matrices: new items appended to Θ (each
    solved against the frozen X), affected user rows re-solved against
    the frozen extended Θ, everything else untouched.
    """
    x, theta = _checked_factors(x, theta, base, lam)
    return _refresh_merged(x, theta, merged_ratings(base, log, n_users=x.shape[0], n_items=theta.shape[0]), log, lam, weighted)


def _checked_factors(x, theta, base: CSRMatrix, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``(x, theta)`` as float64, checked against the base ratings' axes."""
    x = np.asarray(x, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if x.ndim != 2 or theta.ndim != 2 or x.shape[1] != theta.shape[1]:
        raise ValueError("x and theta must be 2-D factor matrices with matching f")
    if x.shape[0] < base.shape[0]:
        raise ValueError(f"x has {x.shape[0]} rows but the base ratings have {base.shape[0]}")
    if theta.shape[0] != base.shape[1]:
        raise ValueError(f"theta has {theta.shape[0]} rows but the base ratings have {base.shape[1]} columns")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    return x, theta


def _refresh_merged(x: np.ndarray, theta: np.ndarray, merged: CSRMatrix, log: InteractionLog, lam: float, weighted: bool) -> RefreshResult:
    """The refresh of checked ``(x, theta)`` against the already merged base+log matrix."""
    f = x.shape[1]
    n_base_users, n_base_items = x.shape[0], theta.shape[0]
    m_new, n_new = merged.shape

    # Item side first: new items get θ rows solved against the frozen X.
    # Users beyond the known rows contribute zero rows (their factors are
    # solved right after, against the extended Θ).
    x_frozen = x
    if m_new > n_base_users:
        x_frozen = np.vstack([x, np.zeros((m_new - n_base_users, f))])
    new_items = np.arange(n_base_items, n_new, dtype=np.int64)
    if new_items.size:
        item_rows = merged.transpose().row_slice(n_base_items, n_new)
        theta_out = np.vstack([theta, fold_in_users(item_rows, x_frozen, lam, weighted=weighted)])
    else:
        theta_out = theta.copy()

    # User side: re-solve exactly the rows the log touched, against the
    # frozen extended Θ.  New users (ids past the current X) are included
    # by construction — they only exist because the log named them.
    affected = log.affected_users()
    x_out = x_frozen.copy()
    if affected.size:
        x_out[affected] = fold_in_users(_gather_rows(merged, affected), theta_out, lam, weighted=weighted)
    return RefreshResult(
        x=x_out,
        theta=theta_out,
        affected_users=affected,
        new_items=new_items,
        ratings=merged,
        n_base_users=n_base_users,
        n_base_items=n_base_items,
    )


class _RefreshSolver(Solver):
    """A one-iteration solver whose single update is an incremental refresh.

    Satisfies the :class:`~repro.core.solver.protocol.Solver` contract so
    the refresh step can run through a
    :class:`~repro.core.solver.session.TrainingSession`: the initial
    yield carries the pre-refresh factors (on the *old* axes; the session
    never scores the initial yield), the one iteration yields the
    refreshed factors sized to the merged matrix.  The full
    :class:`RefreshResult` is stashed on :attr:`last_refresh`.

    Private to :func:`run_refresh_session`: ``iterate`` takes ``train``
    to be the merged base+log matrix and does not merge the log again.
    """

    name = "refresh"

    def __init__(self, log: InteractionLog, lam: float, weighted: bool = True):
        self.log = log
        self.lam = float(lam)
        self.weighted = weighted
        self.last_refresh: RefreshResult | None = None

    def iterate(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        *,
        x0: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> Iterator[SolverStep]:
        """Yield the pre-refresh factors, then the refreshed ones.

        ``train`` is the merged base+log matrix
        (:func:`merged_ratings` over ``x0``/``theta0``'s axes), so the
        refresh solves against it without merging again.
        """
        if x0 is None or theta0 is None:
            raise ValueError("_RefreshSolver needs the current factors as x0/theta0")
        yield SolverStep(x0, theta0)
        refreshed = _refresh_merged(np.asarray(x0, dtype=np.float64), np.asarray(theta0, dtype=np.float64), train, self.log, self.lam, self.weighted)
        self.last_refresh = refreshed
        yield SolverStep(refreshed.x, refreshed.theta)


def run_refresh_session(
    x: np.ndarray,
    theta: np.ndarray,
    base: CSRMatrix,
    log: InteractionLog,
    lam: float,
    *,
    weighted: bool = True,
    callbacks=(),
    start_iteration: int = 0,
    test: CSRMatrix | None = None,
) -> tuple[RefreshResult, FitResult]:
    """One refresh as a callback-emitting training session.

    The session runs over the merged base+log matrix (what the refreshed
    factors are solved against), so the recorded history row carries the
    post-refresh train RMSE; ``start_iteration`` continues an existing
    history's numbering.  Returns the :class:`RefreshResult` plus the
    session's :class:`~repro.core.config.FitResult`.
    """
    x, theta = _checked_factors(x, theta, base, lam)
    solver = _RefreshSolver(log, lam, weighted=weighted)
    merged = merged_ratings(base, log, n_users=x.shape[0], n_items=theta.shape[0])
    session = TrainingSession(solver, callbacks=callbacks)
    fit = session.run(merged, test, x0=x, theta0=theta, start_iteration=start_iteration)
    assert solver.last_refresh is not None
    return solver.last_refresh, fit
