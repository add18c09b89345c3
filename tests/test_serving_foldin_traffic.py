"""Cold-start fold-in numerics and the query-traffic simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ALSConfig, CuMF
from repro.core.hermitian import update_factor
from repro.serving import (
    InteractionLog,
    QueryTrace,
    RequestSimulator,
    ServingConfig,
    fold_in_user,
    fold_in_users,
    validate_ratings,
)
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def fitted(tiny_ratings):
    model = CuMF(ALSConfig(f=8, lam=0.05, iterations=3, seed=1, row_batch=128), backend="base")
    model.fit(tiny_ratings.train, tiny_ratings.test)
    return model


class TestFoldIn:
    def test_fold_in_equals_base_als_user_update(self, fitted, tiny_ratings):
        """A fold-in IS one Base-ALS user update against frozen Θ (to 1e-8)."""
        theta = fitted.result.theta
        lam = fitted.config.lam
        reference = update_factor(tiny_ratings.train, theta, lam)
        for u in (0, 3, 17, 123):
            items, ratings = tiny_ratings.train.row(u)
            folded = fold_in_user(items, ratings, theta, lam)
            np.testing.assert_allclose(folded, reference[u], rtol=0, atol=1e-8)

    def test_fold_in_users_matches_single(self, fitted, tiny_ratings):
        theta = fitted.result.theta
        rows = tiny_ratings.train.row_slice(0, 6)
        batch = fold_in_users(rows, theta, fitted.config.lam)
        for u in range(6):
            items, ratings = rows.row(u)
            single = fold_in_user(items, ratings, theta, fitted.config.lam)
            np.testing.assert_allclose(batch[u], single, rtol=0, atol=1e-12)

    def test_empty_ratings_give_zero_factor(self, fitted):
        folded = fold_in_user(
            np.empty(0, dtype=np.int64), np.empty(0), fitted.result.theta, fitted.config.lam
        )
        np.testing.assert_array_equal(folded, np.zeros(fitted.config.f))

    def test_validation(self, fitted):
        theta = fitted.result.theta
        with pytest.raises(ValueError, match="aligned"):
            fold_in_user(np.array([0, 1]), np.array([1.0]), theta, 0.05)
        with pytest.raises(ValueError, match="out of range"):
            fold_in_user(np.array([theta.shape[0]]), np.array([1.0]), theta, 0.05)
        with pytest.raises(ValueError, match="integer"):
            fold_in_user(np.array([1.5]), np.array([1.0]), theta, 0.05)
        with pytest.raises(ValueError, match="items"):
            fold_in_users(CSRMatrix.from_dense(np.ones((2, theta.shape[0] + 1))), theta, 0.05)

    def test_store_fold_in_is_servable(self, fitted, tiny_ratings):
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend
        items, ratings = tiny_ratings.train.row(5)
        before = store.n_users
        user = store.fold_in(items, ratings)
        assert user == before and store.n_users == before + 1
        assert store.stats.fold_ins == 1
        # The folded user's factor solves the same system as training row 5.
        np.testing.assert_allclose(
            store.x[user],
            update_factor(tiny_ratings.train, fitted.result.theta, store.lam)[5],
            rtol=0,
            atol=1e-8,
        )
        # Their fold-in items count as seen when an exclude matrix is given.
        recs = store.recommend(user, k=store.n_items, exclude=tiny_ratings.train)
        assert not set(items.tolist()) & {i for i, _ in recs}


class TestUnifiedValidation:
    """Bad ratings must fail identically on every ingest path (regression).

    ``FactorStore.fold_in`` and the standalone ``fold_in_user`` share one
    validation gate (``validate_ratings``): same exception type, same
    message, and no store state touched on rejection.
    """

    BAD_INPUTS = [
        (np.array([0, 1]), np.array([1.0])),  # misaligned
        (np.array([[0, 1]]), np.array([[1.0, 2.0]])),  # not 1-D
        (np.array([1.5]), np.array([1.0])),  # fractional dtype
        (np.array([True]), np.array([1.0])),  # bool is not an index
        (np.array([-1]), np.array([1.0])),  # negative id
        (np.array([10**9]), np.array([1.0])),  # out of range
        (np.array([0]), np.array([np.nan])),  # NaN rating
        (np.array([0, 1]), np.array([4.0, np.inf])),  # inf rating
        (np.array([0, 1]), np.array([-np.inf, 4.0])),  # -inf rating
    ]

    @pytest.mark.parametrize("items,ratings", BAD_INPUTS)
    def test_both_paths_fail_identically(self, fitted, items, ratings):
        store = fitted.serve(ServingConfig(log=False)).backend
        theta = fitted.result.theta
        with pytest.raises(ValueError) as direct:
            fold_in_user(items, ratings, theta, store.lam)
        with pytest.raises(ValueError) as via_store:
            store.fold_in(items, ratings)
        assert str(direct.value) == str(via_store.value)
        # rejection left the store untouched
        assert store.n_users == fitted.result.x.shape[0]
        assert store.stats.fold_ins == 0 and not store._folded_items

    def test_duplicate_items_sum_on_both_paths(self, fitted):
        """Duplicates follow the trainer's CSR summing on store fold-ins too."""
        theta = fitted.result.theta
        store = fitted.serve(ServingConfig(log=False)).backend
        dup = store.fold_in(np.array([2, 2, 5]), np.array([1.0, 3.0, 2.0]))
        summed = store.fold_in(np.array([2, 5]), np.array([4.0, 2.0]))
        np.testing.assert_array_equal(store.x[dup], store.x[summed])
        np.testing.assert_array_equal(
            store.x[dup],
            fold_in_user(np.array([2, 2, 5]), np.array([1.0, 3.0, 2.0]), theta, store.lam),
        )
        np.testing.assert_array_equal(store._folded_items[dup], [2, 5])

    def test_validate_ratings_contract(self):
        items, ratings = validate_ratings([3, 1], [1.0, 2.0], 10)
        assert items.dtype == np.int64 and ratings.dtype == np.float64
        with pytest.raises(ValueError, match="out of range"):
            validate_ratings(np.array([10]), np.array([1.0]), 10)
        # unbounded mode (interaction log): any non-negative id is fine
        validate_ratings(np.array([10**9]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            validate_ratings(np.array([-3]), np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            validate_ratings(np.array([3]), np.array([np.nan]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_log_rejects_non_finite_ratings(self, bad):
        log = InteractionLog()
        with pytest.raises(ValueError, match="finite"):
            log.record(0, np.array([1, 2]), np.array([4.0, bad]))
        assert len(log) == 0


class TestQueryTrace:
    def test_poisson_is_deterministic_and_sorted(self):
        a = QueryTrace.poisson(200, 500.0, 50, seed=9)
        b = QueryTrace.poisson(200, 500.0, 50, seed=9)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.users, b.users)
        assert np.all(np.diff(a.arrivals) >= 0)
        assert a.n_requests == 200
        assert 0 <= a.users.min() and a.users.max() < 50

    def test_bursty_runs_hotter_than_base(self):
        trace = QueryTrace.bursty(400, 100.0, 5000.0, 50, burst_every_s=0.5, burst_len_s=0.1, seed=2)
        mean_rate = trace.n_requests / trace.duration
        assert mean_rate > 100.0  # bursts must raise the average rate
        assert np.all(np.diff(trace.arrivals) >= 0)

    def test_bursty_rate_switches_at_the_boundary(self):
        """A gap crossing a regime boundary is re-drawn at the new regime's rate.

        With a near-silent base rate (mean gap 10 s >> the 1 s period) and a
        hot burst, every gap drawn in a quiet stretch overshoots the
        quiet->burst boundary, so arrivals must come from re-draws at the
        burst rate just past the boundary.  The old code decided the rate
        from the *previous* arrival time, which made quiet-rate gaps leap
        over entire bursts: its first arrival landed around t=10, not at
        the first burst boundary.
        """
        trace = QueryTrace.bursty(
            500, 0.1, 10_000.0, 20, burst_every_s=1.0, burst_len_s=0.1, seed=0
        )
        quiet_len = 0.9
        # first arrival pinned hard at the first quiet->burst boundary
        assert quiet_len <= trace.arrivals[0] < quiet_len + 0.005
        # and (for this seed) every arrival falls inside a burst window
        assert np.all(trace.arrivals % 1.0 >= quiet_len)

    def test_bursty_per_regime_rates_match_spec(self):
        """Empirical quiet/burst arrival counts must reflect the two rates."""
        base_qps, burst_qps = 200.0, 2000.0
        trace = QueryTrace.bursty(
            4000, base_qps, burst_qps, 50, burst_every_s=0.5, burst_len_s=0.25, seed=1
        )
        phase = trace.arrivals % 0.5
        quiet_count = int(np.sum(phase < 0.25))
        burst_count = int(np.sum(phase >= 0.25))
        # equal regime lengths, so the count ratio estimates the rate ratio (10x)
        ratio = burst_count / quiet_count
        assert 8.0 <= ratio <= 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryTrace.poisson(0, 10.0, 5)
        with pytest.raises(ValueError):
            QueryTrace.bursty(10, 1.0, 2.0, 5, burst_every_s=0.1, burst_len_s=0.2)
        with pytest.raises(ValueError):
            QueryTrace(np.array([2.0, 1.0]), np.array([0, 1]))


class TestRequestSimulator:
    def test_all_requests_served(self, fitted, tiny_ratings):
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend
        sim = RequestSimulator(store, k=5, exclude=tiny_ratings.train, max_batch=32, window_s=0.01)
        trace = QueryTrace.poisson(300, 1500.0, store.n_users, seed=4)
        report = sim.run(trace)
        assert report.n_requests == 300
        assert store.stats.queries == 300
        assert report.n_batches == store.stats.batches
        assert report.mean_batch_size <= 32
        assert report.throughput_qps > 0
        assert report.latency_p50_s <= report.latency_p95_s <= report.latency_max_s
        # every query waits at least its service batch; none can finish early
        assert report.latency_max_s < report.makespan_s + report.service_seconds

    def test_window_knob_trades_latency_for_batching(self, fitted):
        store_small = fitted.serve(ServingConfig(n_shards=2, log=False)).backend
        store_large = fitted.serve(ServingConfig(n_shards=2, log=False)).backend
        trace = QueryTrace.poisson(300, 2000.0, store_small.n_users, seed=6)
        eager = RequestSimulator(store_small, max_batch=256, window_s=0.0).run(trace)
        patient = RequestSimulator(store_large, max_batch=256, window_s=0.05).run(trace)
        assert patient.mean_batch_size > eager.mean_batch_size
        assert patient.latency_p50_s >= eager.latency_p50_s

    def test_max_batch_respected(self, fitted):
        store = fitted.serve(ServingConfig(n_shards=2, log=False)).backend
        # all requests arrive at once: windows must split them at max_batch
        trace = QueryTrace(np.zeros(100), np.arange(100) % store.n_users)
        report = RequestSimulator(store, max_batch=16, window_s=0.01).run(trace)
        assert report.n_batches == int(np.ceil(100 / 16))

    def test_validation(self, fitted):
        store = fitted.serve(ServingConfig(log=False)).backend
        with pytest.raises(ValueError):
            RequestSimulator(store, max_batch=0)
        with pytest.raises(ValueError):
            RequestSimulator(store, window_s=-1.0)
