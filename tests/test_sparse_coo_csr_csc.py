"""Unit tests for the from-scratch sparse-matrix substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix

from tests.conftest import random_coo


class TestCOO:
    def test_from_dense_roundtrip(self):
        dense = np.array([[0.0, 1.5], [2.5, 0.0], [0.0, 0.0]])
        coo = COOMatrix.from_dense(dense)
        assert coo.nnz == 2
        np.testing.assert_allclose(coo.to_dense(), dense)

    def test_empty_matrix(self):
        coo = COOMatrix.empty((3, 4))
        assert coo.nnz == 0
        assert coo.to_dense().shape == (3, 4)
        assert coo.density == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            COOMatrix((0, 3), np.array([0]), np.array([0]), np.array([1.0]))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), np.array([2]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            COOMatrix((2, 2), np.array([0]), np.array([5]), np.array([1.0]))

    def test_mismatched_buffers_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_deduplicate_sums_values(self):
        coo = COOMatrix((2, 2), np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([1.0, 2.0, 3.0]))
        dedup = coo.deduplicate()
        assert dedup.nnz == 2
        assert dedup.to_dense()[0, 1] == pytest.approx(3.0)

    def test_transpose(self):
        coo = random_coo(5, 7, 12, seed=3)
        np.testing.assert_allclose(coo.transpose().to_dense(), coo.to_dense().T)

    def test_sample_split_partitions_entries(self):
        coo = random_coo(30, 30, 200, seed=4).deduplicate()
        held_in, held_out = coo.sample(0.3, np.random.default_rng(0))
        assert held_in.nnz + held_out.nnz == coo.nnz
        np.testing.assert_allclose(held_in.to_dense() + held_out.to_dense(), coo.to_dense())

    def test_sample_fraction_validation(self):
        with pytest.raises(ValueError):
            random_coo(3, 3, 4).sample(1.5, np.random.default_rng(0))


class TestCSR:
    def test_from_coo_matches_dense(self):
        coo = random_coo(10, 8, 40, seed=1)
        csr = CSRMatrix.from_coo(coo)
        np.testing.assert_allclose(csr.to_dense(), coo.deduplicate().to_dense())

    def test_row_access(self, small_csr):
        cols, vals = small_csr.row(2)
        np.testing.assert_array_equal(cols, [1, 3, 4])
        np.testing.assert_allclose(vals, [3.0, 4.0, 5.0])

    def test_empty_row(self, small_csr):
        cols, vals = small_csr.row(1)
        assert cols.size == 0 and vals.size == 0

    def test_nnz_per_row_and_col(self, small_csr):
        np.testing.assert_array_equal(small_csr.nnz_per_row(), [2, 0, 3, 2])
        np.testing.assert_array_equal(small_csr.nnz_per_col(), [2, 1, 1, 1, 2])

    def test_memory_floats_formula(self, small_csr):
        assert small_csr.memory_floats() == 2 * small_csr.nnz + small_csr.shape[0] + 1

    def test_row_slice(self, small_csr, small_dense):
        sliced = small_csr.row_slice(1, 3)
        np.testing.assert_allclose(sliced.to_dense(), small_dense[1:3])

    def test_slice_bounds_validation(self, small_csr):
        with pytest.raises(ValueError):
            small_csr.row_slice(3, 1)

    def test_transpose(self, small_csr, small_dense):
        np.testing.assert_allclose(small_csr.transpose().to_dense(), small_dense.T)

    def test_dot_dense(self, small_csr, small_dense, rng):
        dense = rng.normal(size=(5, 3))
        np.testing.assert_allclose(small_csr.dot_dense(dense), small_dense @ dense)

    def test_dot_dense_dimension_check(self, small_csr):
        with pytest.raises(ValueError):
            small_csr.dot_dense(np.zeros((3, 2)))

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_equality(self, small_csr):
        other = CSRMatrix.from_dense(small_csr.to_dense())
        assert small_csr == other
        assert not (small_csr == CSRMatrix.from_dense(np.eye(3)))

    def test_frobenius_norm(self, small_csr, small_dense):
        assert small_csr.frobenius_norm() == pytest.approx(np.linalg.norm(small_dense))


class TestCSC:
    def test_from_coo_matches_dense(self):
        coo = random_coo(9, 11, 35, seed=2)
        csc = CSCMatrix.from_coo(coo)
        np.testing.assert_allclose(csc.to_dense(), coo.deduplicate().to_dense())

    def test_col_access(self, small_csr):
        csc = small_csr.to_csc()
        rows, vals = csc.col(4)
        np.testing.assert_array_equal(rows, [2, 3])
        np.testing.assert_allclose(vals, [5.0, 7.0])

    def test_nnz_per_col_matches_csr(self, small_csr):
        csc = small_csr.to_csc()
        np.testing.assert_array_equal(csc.nnz_per_col(), small_csr.nnz_per_col())
        np.testing.assert_array_equal(csc.nnz_per_row(), small_csr.nnz_per_row())

    def test_transpose_csr_is_free_reinterpretation(self, small_csr, small_dense):
        rt = small_csr.to_csc().transpose_csr()
        np.testing.assert_allclose(rt.to_dense(), small_dense.T)

    def test_col_slice(self, small_csr, small_dense):
        csc = small_csr.to_csc().col_slice(2, 5)
        np.testing.assert_allclose(csc.to_dense(), small_dense[:, 2:5])

    def test_dot_dense_transposed(self, small_csr, small_dense, rng):
        dense = rng.normal(size=(4, 3))
        csc = small_csr.to_csc()
        np.testing.assert_allclose(csc.dot_dense_transposed(dense), small_dense.T @ dense)

    def test_roundtrip_csr_csc_csr(self, small_csr):
        assert small_csr.to_csc().to_csr() == small_csr


class TestZeroSize:
    """Matrices with zero rows or columns convert like any other (they used to raise in COO's shape check)."""

    @staticmethod
    def _empty_rows() -> CSRMatrix:
        return CSRMatrix((0, 5), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))

    def test_transpose(self):
        rt = self._empty_rows().transpose()
        assert rt.shape == (5, 0) and rt.nnz == 0
        np.testing.assert_array_equal(rt.indptr, np.zeros(6))

    def test_to_csc(self):
        csc = self._empty_rows().to_csc()
        assert csc.shape == (0, 5) and csc.nnz == 0
        np.testing.assert_array_equal(csc.indptr, np.zeros(6))

    def test_to_coo(self):
        coo = self._empty_rows().to_coo()
        assert coo.shape == (0, 5) and coo.nnz == 0 and coo.density == 0.0
        assert coo.to_csr() == self._empty_rows()

    def test_empty_row_slice_transposes(self, small_csr):
        piece = small_csr.row_slice(2, 2)
        assert piece.shape == (0, 5) and piece.density == 0.0
        assert piece.transpose().shape == (5, 0)

    def test_csc_with_no_columns_converts_to_csr(self, small_csr):
        csr = small_csr.to_csc().col_slice(3, 3).to_csr()
        assert csr.shape == (4, 0) and csr.nnz == 0
        np.testing.assert_array_equal(csr.indptr, np.zeros(5))

    def test_coo_with_no_cells_deduplicates(self):
        coo = COOMatrix.empty((0, 0))
        assert coo.density == 0.0 and coo.deduplicate().nnz == 0
        assert coo.to_csc().shape == (0, 0)

    def test_negative_shape_still_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            COOMatrix.empty((-1, 3))


class TestKeyRange:
    """Entries are placed by one int64 key ``row * n + col``: a shape with more cells than int64 can number is refused."""

    @pytest.mark.parametrize("m", [5, 4, 3])
    def test_too_many_cells_raise_naming_the_shape(self, m):
        # (5, 2**62) used to put entry (4, 5) in row 0 without an error; (4, 2**62) failed inside bincount.
        with pytest.raises(ValueError, match=f"{m} x {2**62} matrix"):
            CSRMatrix.from_arrays((m, 2**62), [m - 1, 1], [5, 7], [1.0, 2.0])

    def test_the_widest_shape_that_fits_still_builds(self):
        # 2 × 2**62 cells: the largest key is 2**63 - 1.
        csr = CSRMatrix.from_arrays((2, 2**62), [1, 0, 1, 1], [2**62 - 1, 5, 3, 2**62 - 1], [1.0, 2.0, 3.0, 4.0])
        assert csr.indptr.tolist() == [0, 1, 3]
        assert csr.indices.tolist() == [5, 3, 2**62 - 1]
        assert csr.data.tolist() == [2.0, 3.0, 5.0]


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_conversion_roundtrips_preserve_dense(m, n, seed):
    """COO → CSR → CSC → dense must agree with the dense ground truth."""
    gen = np.random.default_rng(seed)
    dense = gen.normal(size=(m, n)) * (gen.random((m, n)) < 0.4)
    coo = COOMatrix.from_dense(dense)
    np.testing.assert_allclose(coo.to_csr().to_dense(), dense)
    np.testing.assert_allclose(coo.to_csc().to_dense(), dense)
    np.testing.assert_allclose(coo.to_csr().to_csc().to_csr().to_dense(), dense)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10),
    n=st.integers(min_value=1, max_value=10),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_spmm_matches_dense(m, n, k, seed):
    """CSR sparse-dense product equals the dense product."""
    gen = np.random.default_rng(seed)
    dense = gen.normal(size=(m, n)) * (gen.random((m, n)) < 0.5)
    other = gen.normal(size=(n, k))
    csr = CSRMatrix.from_dense(dense)
    np.testing.assert_allclose(csr.dot_dense(other), dense @ other, atol=1e-10)
