"""Tests for the ALS numerical core: Hermitian assembly, solves, metrics."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hermitian import (
    batch_solve,
    compute_hermitians,
    compute_hermitians_loop,
    segment_sum,
    update_factor,
)
from repro.core.metrics import objective_value, predict_entries, rmse
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import RESIDUAL_CHUNK, sampled_residual

from tests.conftest import random_coo


@st.composite
def hermitian_cases(draw):
    """A CSR matrix, Θ, a row sub-range and a λ weighting for Hermitian assembly.

    Row lengths come from one of three shapes: mixed (with empty rows), every
    row the same length, or short rows plus one very long row.
    """
    f = draw(st.sampled_from([1, 32]))
    m = draw(st.integers(1, 25))
    n = draw(st.integers(1, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["mixed", "same", "long"]))
    if shape == "mixed":
        counts = gen.integers(0, 6, size=m)
    elif shape == "same":
        counts = np.full(m, gen.integers(0, 6))
    else:
        counts = gen.integers(0, 3, size=m)
        counts[gen.integers(m)] = 300
    indptr = np.concatenate([[0], np.cumsum(counts)])
    nnz = int(indptr[-1])
    r = CSRMatrix((m, n), indptr, gen.integers(0, n, size=nnz), gen.normal(size=nnz))
    theta = gen.normal(size=(n, f))
    row_start = draw(st.integers(0, m))
    row_stop = draw(st.integers(row_start, m))
    return r, theta, row_start, row_stop, draw(st.booleans())


class TestSegmentSum:
    def test_basic_segments(self):
        values = np.arange(6, dtype=float).reshape(6, 1)
        indptr = np.array([0, 2, 2, 6])
        out = segment_sum(values, indptr)
        np.testing.assert_allclose(out[:, 0], [1.0, 0.0, 14.0])

    def test_empty_values(self):
        out = segment_sum(np.zeros((0, 3)), np.array([0, 0, 0]))
        np.testing.assert_allclose(out, np.zeros((2, 3)))

    def test_trailing_empty_segments(self):
        values = np.ones((3, 2))
        indptr = np.array([0, 3, 3, 3])
        out = segment_sum(values, indptr)
        np.testing.assert_allclose(out, [[3, 3], [0, 0], [0, 0]])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500), m=st.integers(1, 15))
    def test_property_matches_python_loop(self, seed, m):
        gen = np.random.default_rng(seed)
        counts = gen.integers(0, 4, size=m)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        values = gen.normal(size=(int(indptr[-1]), 3))
        out = segment_sum(values, indptr)
        for i in range(m):
            np.testing.assert_allclose(out[i], values[indptr[i] : indptr[i + 1]].sum(axis=0), atol=1e-12)


class TestHermitians:
    def _setup(self, seed=0, m=20, n=12, nnz=80, f=5):
        r = random_coo(m, n, nnz, seed=seed).to_csr()
        theta = np.random.default_rng(seed + 1).normal(size=(n, f))
        return r, theta

    def test_vectorised_matches_loop_reference(self):
        r, theta = self._setup()
        a_vec, b_vec = compute_hermitians(r, theta, lam=0.1)
        a_loop, b_loop = compute_hermitians_loop(r, theta, lam=0.1)
        np.testing.assert_allclose(a_vec, a_loop, atol=1e-10)
        np.testing.assert_allclose(b_vec, b_loop, atol=1e-10)

    def test_unweighted_regularization(self):
        r, theta = self._setup(seed=3)
        a_vec, _ = compute_hermitians(r, theta, lam=0.5, weighted=False)
        a_loop, _ = compute_hermitians_loop(r, theta, lam=0.5, weighted=False)
        np.testing.assert_allclose(a_vec, a_loop, atol=1e-10)

    def test_weighted_lambda_scales_with_row_count(self):
        r, theta = self._setup(seed=5)
        lam = 0.7
        a, _ = compute_hermitians(r, theta, lam=lam)
        counts = r.nnz_per_row()
        gram_free = a - lam * counts[:, None, None] * np.eye(theta.shape[1])
        # The remaining part must be exactly the gram of the gathered columns.
        for u in range(r.shape[0]):
            cols, _ = r.row(u)
            np.testing.assert_allclose(gram_free[u], theta[cols].T @ theta[cols], atol=1e-10)

    def test_row_range_slicing(self):
        r, theta = self._setup(seed=7)
        a_full, b_full = compute_hermitians(r, theta, lam=0.1)
        a_part, b_part = compute_hermitians(r, theta, lam=0.1, row_start=5, row_stop=12)
        np.testing.assert_allclose(a_part, a_full[5:12])
        np.testing.assert_allclose(b_part, b_full[5:12])

    def test_b_is_rhs_of_eq2(self):
        r, theta = self._setup(seed=9)
        _, b = compute_hermitians(r, theta, lam=0.0)
        np.testing.assert_allclose(b, r.to_dense() @ theta, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        r, theta = self._setup()
        with pytest.raises(ValueError):
            compute_hermitians(r, theta[:-1], lam=0.1)

    def test_invalid_row_range_rejected(self):
        r, theta = self._setup()
        with pytest.raises(ValueError):
            compute_hermitians(r, theta, 0.1, row_start=10, row_stop=5)

    @settings(max_examples=60, deadline=None)
    @given(case=hermitian_cases())
    def test_property_matches_loop_reference(self, case):
        r, theta, row_start, row_stop, weighted = case
        a, b = compute_hermitians(r, theta, 0.3, row_start, row_stop, weighted=weighted)
        a_ref, b_ref = compute_hermitians_loop(r.row_slice(row_start, row_stop), theta, 0.3, weighted=weighted)
        np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-10)

    def test_transient_memory_is_linear_in_rows_and_nnz(self):
        """No ``(nnz, f, f)`` intermediate: the peak stays within a few outputs."""
        f = 32
        r = random_coo(400, 64, 8000, seed=17).to_csr()
        theta = np.random.default_rng(4).normal(size=(64, f))
        tracemalloc.start()
        try:
            compute_hermitians(r, theta, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * (r.shape[0] * f * f + r.nnz * f)


class TestBatchSolve:
    def test_solves_stacked_spd_systems(self, rng):
        f, k = 4, 6
        mats = rng.normal(size=(k, f, f))
        a = np.einsum("kij,klj->kil", mats, mats) + 0.5 * np.eye(f)
        x_true = rng.normal(size=(k, f))
        b = np.einsum("kij,kj->ki", a, x_true)
        np.testing.assert_allclose(batch_solve(a, b), x_true, atol=1e-8)

    def test_singular_rows_get_zero_solution(self):
        a = np.zeros((2, 3, 3))
        a[1] = np.eye(3)
        b = np.ones((2, 3))
        out = batch_solve(a, b)
        np.testing.assert_allclose(out[0], 0.0)
        np.testing.assert_allclose(out[1], 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_solve(np.zeros((2, 3, 3)), np.zeros((2, 4)))

    def test_update_factor_minimises_regularized_objective(self):
        """The ALS update must be the exact minimiser of J w.r.t. X."""
        r = random_coo(15, 10, 60, seed=11).to_csr()
        rng = np.random.default_rng(2)
        theta = rng.normal(size=(10, 4))
        lam = 0.3
        x_opt = update_factor(r, theta, lam)
        x_init = rng.normal(size=x_opt.shape)

        def j_of(x):
            return objective_value(r, x, theta, lam) - lam * np.sum(r.nnz_per_col() * np.sum(theta**2, axis=1))

        assert j_of(x_opt) <= j_of(x_init) + 1e-9
        # Perturbing the optimum must not decrease the objective.
        for _ in range(5):
            perturbed = x_opt + rng.normal(scale=1e-3, size=x_opt.shape)
            assert j_of(perturbed) >= j_of(x_opt) - 1e-9

    def test_update_factor_row_batching_invariance(self):
        r = random_coo(33, 14, 150, seed=13).to_csr()
        theta = np.random.default_rng(3).normal(size=(14, 6))
        a = update_factor(r, theta, 0.05, row_batch=7)
        b = update_factor(r, theta, 0.05, row_batch=1000)
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestSampledResidual:
    @pytest.mark.parametrize("nnz", [0, RESIDUAL_CHUNK, 3 * RESIDUAL_CHUNK + 17])
    @pytest.mark.parametrize("f", [1, 32])
    def test_chunked_equals_unchunked_bitwise(self, nnz, f):
        m, n = 300, 200
        gen = np.random.default_rng(nnz + f)
        rows = np.sort(gen.integers(0, m, size=nnz))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
        r = CSRMatrix((m, n), indptr, gen.integers(0, n, size=nnz), gen.normal(size=nnz))
        x = gen.normal(size=(m, f))
        theta = gen.normal(size=(n, f))
        expected = r.data - np.einsum("ij,ij->i", x[r.row_ids()], theta[r.indices])
        assert sampled_residual(r, x, theta).tobytes() == expected.tobytes()


class TestMetrics:
    def test_rmse_zero_for_perfect_factors(self, rng):
        x = rng.normal(size=(8, 3))
        theta = rng.normal(size=(6, 3))
        r = CSRMatrix.from_dense(x @ theta.T)
        assert rmse(r, x, theta) == pytest.approx(0.0, abs=1e-10)

    def test_rmse_hand_computed(self):
        r = CSRMatrix.from_dense(np.array([[2.0, 0.0], [0.0, 4.0]]))
        x = np.zeros((2, 1))
        theta = np.zeros((2, 1))
        assert rmse(r, x, theta) == pytest.approx(np.sqrt((4 + 16) / 2))

    def test_predict_entries_alignment(self, rng):
        x = rng.normal(size=(5, 2))
        theta = rng.normal(size=(4, 2))
        r = CSRMatrix.from_dense(np.ones((5, 4)))
        preds = predict_entries(r, x, theta)
        np.testing.assert_allclose(preds, (x @ theta.T).ravel())

    def test_objective_value_components(self, rng):
        x = rng.normal(size=(4, 2))
        theta = rng.normal(size=(3, 2))
        dense = np.abs(rng.normal(size=(4, 3))) + 0.1
        r = CSRMatrix.from_dense(dense)
        lam = 0.4
        expected = np.sum((dense - x @ theta.T) ** 2)
        expected += lam * np.sum(r.nnz_per_row() * np.sum(x**2, axis=1))
        expected += lam * np.sum(r.nnz_per_col() * np.sum(theta**2, axis=1))
        assert objective_value(r, x, theta, lam) == pytest.approx(expected)
