"""Tests for the dataset registry, synthetic generator, split and I/O."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.io import load_ratings_npz, save_ratings_npz
from repro.datasets.registry import DATASETS, FACEBOOK, HUGEWIKI, NETFLIX, DatasetSpec, get_dataset
from repro.datasets.split import train_test_split
from repro.datasets.synthetic import generate_ratings, powerlaw_weights

from tests.conftest import random_coo


class TestRegistry:
    def test_table5_values(self):
        assert NETFLIX.m == 480_189 and NETFLIX.n == 17_770 and NETFLIX.f == 100
        assert NETFLIX.lam == pytest.approx(0.05)
        assert HUGEWIKI.nz == pytest.approx(3.1e9)
        assert FACEBOOK.nz == pytest.approx(112e9)
        assert len(DATASETS) == 7

    def test_lookup_case_insensitive(self):
        assert get_dataset("netflix") is NETFLIX
        with pytest.raises(KeyError):
            get_dataset("movielens")

    def test_derived_quantities(self):
        assert NETFLIX.model_parameters == (NETFLIX.m + NETFLIX.n) * 100
        assert NETFLIX.nnz_per_row == pytest.approx(NETFLIX.nz / NETFLIX.m)
        assert 0 < NETFLIX.density < 1

    def test_scaled_spec_preserves_shape_character(self):
        scaled = NETFLIX.scaled(max_rows=2000, f=16)
        assert scaled.m <= 2000
        assert scaled.nz <= scaled.m * scaled.n
        # Rows stay "dense-ish": average ratings per row within a factor of the original or the cap.
        assert scaled.nnz_per_row == pytest.approx(min(NETFLIX.nnz_per_row, scaled.n * 0.5), rel=0.2)

    def test_scaled_of_small_spec_is_identity_like(self):
        small = DatasetSpec("s", 100, 50, 500, 8, 0.1)
        scaled = small.scaled(max_rows=1000)
        assert scaled.m == 100

    def test_rating_and_factor_bytes(self):
        assert NETFLIX.rating_bytes() == pytest.approx(4 * (2 * NETFLIX.nz + NETFLIX.m + 1))
        assert NETFLIX.factor_bytes() == pytest.approx(4 * NETFLIX.model_parameters)


class TestPowerlawWeights:
    def test_normalised(self, rng):
        w = powerlaw_weights(100, 0.8, rng)
        assert w.shape == (100,)
        assert w.sum() == pytest.approx(1.0)
        assert (w > 0).all()

    def test_zero_exponent_is_uniform(self, rng):
        w = powerlaw_weights(50, 0.0, rng)
        np.testing.assert_allclose(w, 1.0 / 50)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            powerlaw_weights(0, 1.0, rng)
        with pytest.raises(ValueError):
            powerlaw_weights(10, -1.0, rng)


class TestSyntheticGenerator:
    def test_shapes_and_counts(self, tiny_ratings):
        spec = tiny_ratings.spec
        assert tiny_ratings.train.shape == (spec.m, spec.n)
        total = tiny_ratings.train.nnz + tiny_ratings.test.nnz
        assert total >= spec.nz * 0.95  # coverage entries can add a few

    def test_values_within_rating_scale(self, tiny_ratings):
        low, high = tiny_ratings.spec.rating_scale
        assert tiny_ratings.train.data.min() >= low - 1e-9
        assert tiny_ratings.train.data.max() <= high + 1e-9

    def test_every_row_and_column_covered_in_train(self, tiny_ratings):
        assert (tiny_ratings.train.nnz_per_row() > 0).all()
        assert (tiny_ratings.train.nnz_per_col() > 0).all()

    def test_deterministic_given_seed(self):
        spec = DatasetSpec("d", 120, 40, 900, 8, 0.05)
        a = generate_ratings(spec, seed=5)
        b = generate_ratings(spec, seed=5)
        assert a.train == b.train

    def test_different_seeds_differ(self):
        spec = DatasetSpec("d", 120, 40, 900, 8, 0.05)
        a = generate_ratings(spec, seed=5)
        b = generate_ratings(spec, seed=6)
        assert not np.array_equal(a.train.data, b.train.data)

    def test_activity_skew_present(self):
        spec = DatasetSpec("skew", 400, 200, 8000, 8, 0.05)
        data = generate_ratings(spec, seed=2, row_exponent=1.0, col_exponent=1.0)
        per_row = data.train.nnz_per_row()
        assert per_row.max() > 4 * np.median(per_row)

    def test_refuses_full_scale_generation(self):
        with pytest.raises(ValueError):
            generate_ratings(NETFLIX)

    def test_rmse_floor_reported(self, tiny_ratings):
        assert tiny_ratings.rmse_floor() == pytest.approx(0.2)


class TestSplit:
    def test_split_partitions_entries(self):
        csr = random_coo(60, 40, 600, seed=1).to_csr()
        train, test = train_test_split(csr, test_fraction=0.25, seed=0, protect_coverage=False)
        assert train.nnz + test.nnz == csr.nnz
        np.testing.assert_allclose(train.to_dense() + test.to_dense(), csr.to_dense())

    def test_protect_coverage_keeps_rows_nonempty(self, tiny_ratings):
        train, _ = train_test_split(tiny_ratings.train, test_fraction=0.5, seed=3, protect_coverage=True)
        assert (train.nnz_per_row() > 0).all()
        assert (train.nnz_per_col() > 0).all()

    def test_fraction_validation(self, small_csr):
        with pytest.raises(ValueError):
            train_test_split(small_csr, test_fraction=1.5)

    @settings(max_examples=15, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=0.9), seed=st.integers(0, 100))
    def test_property_split_never_loses_ratings(self, fraction, seed):
        csr = random_coo(30, 20, 150, seed=seed).to_csr()
        train, test = train_test_split(csr, fraction, seed=seed)
        assert train.nnz + test.nnz == csr.nnz


class TestIO:
    def test_npz_roundtrip(self, tmp_path, small_csr):
        path = tmp_path / "ratings.npz"
        save_ratings_npz(path, small_csr)
        loaded = load_ratings_npz(path)
        assert loaded == small_csr
