"""Tests for partitioning (Algorithm 3 splits) and the sparse kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import rmse_from_residual, sampled_residual
from repro.sparse.partition import Partition1D, grid_partition, partition_bounds

from tests.conftest import random_coo


class TestPartitionBounds:
    def test_even_split(self):
        np.testing.assert_array_equal(partition_bounds(10, 2), [0, 5, 10])

    def test_uneven_split_gives_extra_to_first(self):
        np.testing.assert_array_equal(partition_bounds(10, 3), [0, 4, 7, 10])

    def test_more_parts_than_elements(self):
        bounds = partition_bounds(2, 4)
        assert bounds[0] == 0 and bounds[-1] == 2
        assert np.all(np.diff(bounds) >= 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            partition_bounds(5, 0)
        with pytest.raises(ValueError):
            partition_bounds(-1, 2)


class TestPartition1D:
    def test_owner_of(self):
        part = Partition1D(10, 3)
        assert part.owner_of(0) == 0
        assert part.owner_of(9) == 2
        with pytest.raises(IndexError):
            part.owner_of(10)

    def test_sizes_sum_to_extent(self):
        part = Partition1D(17, 5)
        assert part.sizes().sum() == 17
        assert len(part) == 5


class TestMatrixPartitioning:
    def test_grid_partition_preserves_nnz_and_values(self):
        csr = random_coo(40, 30, 300, seed=5).to_csr()
        grid = grid_partition(csr, p=3, q=4)
        assert grid.p == 3 and grid.q == 4
        assert sum(b.nnz for row in grid.blocks for b in row) == csr.nnz
        # Reassemble the dense matrix from the grid blocks.
        dense = np.zeros(csr.shape)
        for i in range(grid.p):
            c_lo, c_hi = grid.col_partition.range_of(i)
            for j in range(grid.q):
                r_lo, r_hi = grid.row_partition.range_of(j)
                dense[r_lo:r_hi, c_lo:c_hi] = grid.block(i, j).to_dense()
        np.testing.assert_allclose(dense, csr.to_dense())

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=4),
        q=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_property_grid_partition_conserves_mass(self, p, q, seed):
        csr = random_coo(25, 25, 120, seed=seed).to_csr()
        grid = grid_partition(csr, p, q)
        total = sum(b.data.sum() for row in grid.blocks for b in row)
        assert total == pytest.approx(csr.data.sum())


@st.composite
def sparse_grids(draw):
    """A CSR matrix with empty rows and columns, and a grid that may have more parts than rows or columns."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = gen.normal(size=(m, n)) * (gen.random((m, n)) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0])))
    dense[:, gen.random(n) < 0.2] = 0.0  # empty columns
    return CSRMatrix.from_dense(dense), draw(st.integers(1, 15)), draw(st.integers(1, 15))


class TestGridPartitionProperty:
    @settings(max_examples=80, deadline=None)
    @given(case=sparse_grids())
    @example(case=(CSRMatrix.from_dense(np.arange(12.0).reshape(3, 4)), 1, 1))
    @example(case=(CSRMatrix.from_dense(np.eye(3)), 5, 7))
    def test_every_block_is_the_dense_slice_with_sorted_columns(self, case):
        r, p, q = case
        grid = grid_partition(r, p, q)
        dense = r.to_dense()
        for i in range(p):
            cols = slice(*grid.col_partition.range_of(i))
            for j in range(q):
                rows = slice(*grid.row_partition.range_of(j))
                block = grid.block(i, j)
                np.testing.assert_array_equal(block.to_dense(), dense[rows][:, cols])
                assert block.nnz == np.count_nonzero(dense[rows][:, cols])
                for u in range(block.shape[0]):
                    assert np.all(np.diff(block.row(u)[0]) > 0)
        assert sum(block.nnz for column in grid.blocks for block in column) == r.nnz


class TestSparseOps:
    def test_sampled_residual_zero_for_exact_factors(self, rng):
        x = rng.normal(size=(6, 3))
        theta = rng.normal(size=(4, 3))
        dense = x @ theta.T
        csr = CSRMatrix.from_dense(dense)
        residual = sampled_residual(csr, x, theta)
        np.testing.assert_allclose(residual, 0.0, atol=1e-10)

    def test_rmse_from_residual(self):
        assert rmse_from_residual(np.array([3.0, -4.0])) == pytest.approx(np.sqrt(12.5))
        assert rmse_from_residual(np.zeros(0)) == 0.0
