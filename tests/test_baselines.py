"""Tests for the CPU baselines: SGD variants, CCD++, PALS, SparkALS, cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import nomad, sgd_hogwild
from repro.baselines.ccd import CCDPlusPlus
from repro.baselines.cost_model import CostEntry, cost_of_run, table1_entries
from repro.baselines.nomad import NomadSGD
from repro.baselines.pals import PALS
from repro.baselines.sgd_hogwild import ParallelSGD, SGDConfig
from repro.baselines.spark_als import SparkALS, theta_shipping_volume
from repro.cluster.nodes import AWS_M3_XLARGE, HPC_NODE, ClusterSpec
from repro.core.als_base import BaseALS
from repro.core.config import ALSConfig
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import GridPartition, Partition1D


@pytest.fixture(scope="module")
def sgd_config():
    return SGDConfig(f=8, lam=0.05, lr=0.08, epochs=5, seed=2)


class TestSGDConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SGDConfig(f=0)
        with pytest.raises(ValueError):
            SGDConfig(lr=0.0)
        with pytest.raises(ValueError):
            SGDConfig(lr_decay=1.5)


class TestParallelSGD:
    def test_rmse_decreases_over_epochs(self, tiny_ratings, sgd_config):
        result = ParallelSGD(sgd_config, cores=4).fit(tiny_ratings.train, tiny_ratings.test)
        curve = [h.train_rmse for h in result.history]
        assert curve[-1] < curve[0]
        assert len(result.history) == sgd_config.epochs

    def test_improves_test_rmse(self, tiny_ratings, sgd_config):
        result = ParallelSGD(sgd_config, cores=4).fit(tiny_ratings.train, tiny_ratings.test)
        assert result.history[-1].test_rmse < result.history[0].test_rmse * 1.05

    def test_simulated_epoch_time_used_when_node_given(self, tiny_ratings, sgd_config):
        result = ParallelSGD(sgd_config, cores=4, node=HPC_NODE).fit(tiny_ratings.train)
        seconds = {h.seconds for h in result.history}
        assert len(seconds) == 1  # the model gives a constant per-epoch time

    def test_core_count_validation(self, sgd_config):
        with pytest.raises(ValueError):
            ParallelSGD(sgd_config, cores=0)

    def test_deterministic(self, tiny_ratings, sgd_config):
        a = ParallelSGD(sgd_config, cores=3).fit(tiny_ratings.train)
        b = ParallelSGD(sgd_config, cores=3).fit(tiny_ratings.train)
        np.testing.assert_allclose(a.x, b.x)


def hand_sliced_grid(r: CSRMatrix, w: int) -> GridPartition:
    """The W×W grid both SGD baselines once built by hand: a row slice, then a column mask per block."""
    row_part, col_part = Partition1D(r.shape[0], w), Partition1D(r.shape[1], w)
    blocks = [[None] * w for _ in range(w)]
    for j in range(w):
        rows = r.row_slice(*row_part.range_of(j))
        for i in range(w):
            lo, hi = col_part.range_of(i)
            keep = (rows.indices >= lo) & (rows.indices < hi)
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows.row_ids()[keep], minlength=rows.shape[0]))))
            blocks[i][j] = CSRMatrix((rows.shape[0], hi - lo), indptr, rows.indices[keep] - lo, rows.data[keep])
    return GridPartition(row_part, col_part, blocks)


@pytest.mark.parametrize(
    "module, make",
    [(nomad, lambda cfg: NomadSGD(cfg, workers=4)), (sgd_hogwild, lambda cfg: ParallelSGD(cfg, cores=3))],
    ids=["nomad", "hogwild"],
)
def test_sgd_factors_bitwise_equal_on_the_hand_sliced_grid(tiny_ratings, sgd_config, monkeypatch, module, make):
    train = tiny_ratings.train
    fitted = make(sgd_config).fit(train)
    grids = []
    partition = module.grid_partition

    def hand_sliced(r, p, q):
        assert r is train and p == q
        grids.append((partition(r, p, q), hand_sliced_grid(r, p)))
        return grids[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(module, "grid_partition", hand_sliced)
        reference = make(sgd_config).fit(train)
    np.testing.assert_array_equal(fitted.x, reference.x)
    np.testing.assert_array_equal(fitted.theta, reference.theta)
    [(grid, hand)] = grids
    for got, want in zip(sum(grid.blocks, []), sum(hand.blocks, [])):
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestNomadSGD:
    def test_rmse_decreases(self, tiny_ratings, sgd_config):
        result = NomadSGD(sgd_config, workers=4).fit(tiny_ratings.train, tiny_ratings.test)
        assert result.history[-1].train_rmse < result.history[0].train_rmse

    def test_comparable_progress_to_block_sgd(self, tiny_ratings, sgd_config):
        # Every rating is visited exactly once per epoch in both schedules, so
        # one NOMAD epoch and one libMF epoch make comparable progress (the
        # visit orders differ, so the factors are not bit-identical).
        single = NomadSGD(sgd_config, workers=1).fit(tiny_ratings.train)
        libmf_single = ParallelSGD(sgd_config, cores=1).fit(tiny_ratings.train)
        assert single.history[-1].train_rmse == pytest.approx(libmf_single.history[-1].train_rmse, abs=0.1)

    def test_cluster_time_model(self, tiny_ratings, sgd_config):
        cluster = ClusterSpec(AWS_M3_XLARGE, 8)
        result = NomadSGD(sgd_config, workers=4, cluster=cluster).fit(tiny_ratings.train)
        assert result.history[0].seconds > 0

    def test_worker_validation(self, sgd_config):
        with pytest.raises(ValueError):
            NomadSGD(sgd_config, workers=0)


class TestCCDPlusPlus:
    def test_rmse_decreases(self, tiny_ratings):
        result = CCDPlusPlus(f=8, lam=0.05, iterations=4, seed=1).fit(tiny_ratings.train, tiny_ratings.test)
        curve = [h.train_rmse for h in result.history]
        assert curve[-1] < curve[0]

    def test_less_progress_per_iteration_than_als(self, tiny_ratings):
        """The paper: CCD++ has lower complexity but makes less progress per iteration."""
        als = BaseALS(ALSConfig(f=8, lam=0.05, iterations=2, seed=1)).fit(tiny_ratings.train, tiny_ratings.test)
        ccd = CCDPlusPlus(f=8, lam=0.05, iterations=2, seed=1).fit(tiny_ratings.train, tiny_ratings.test)
        assert als.history[1].train_rmse <= ccd.history[1].train_rmse + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            CCDPlusPlus(f=0)


class TestPALS:
    def test_numerics_match_base_als(self, tiny_ratings, als_config):
        pals = PALS(als_config, workers=4).fit(tiny_ratings.train, tiny_ratings.test)
        base = BaseALS(als_config).fit(tiny_ratings.train, tiny_ratings.test)
        np.testing.assert_allclose(pals.x, base.x)
        assert pals.solver == "pals"

    def test_broadcast_volume_formula(self, als_config):
        pals = PALS(als_config, workers=10)
        assert pals.broadcast_bytes_per_iteration(1000, 500) == pytest.approx(10 * 1500 * als_config.f * 4)

    def test_worker_validation(self, als_config):
        with pytest.raises(ValueError):
            PALS(als_config, workers=0)


class TestSparkALS:
    def test_shipping_volume_never_exceeds_full_replication(self, tiny_ratings):
        vol = theta_shipping_volume(tiny_ratings.train, workers=6, f=8)
        assert vol["total_columns_shipped"] <= vol["full_replication_columns"]
        assert 0.0 <= vol["saving_vs_pals"] <= 1.0
        assert len(vol["per_partition_columns"]) == 6

    def test_single_worker_ships_each_used_column_once(self, small_csr):
        vol = theta_shipping_volume(small_csr, workers=1, f=4)
        assert vol["total_columns_shipped"] == len(np.unique(small_csr.indices))

    def test_fit_attaches_shuffle_accounting(self, tiny_ratings, als_config):
        result = SparkALS(als_config, workers=5).fit(tiny_ratings.train)
        assert result.breakdown["bytes_per_iteration"] > 0
        assert result.solver == "spark-als"

    def test_spark_ships_less_than_pals_on_sparse_data(self, tiny_ratings, als_config):
        workers = 8
        vol = theta_shipping_volume(tiny_ratings.train, workers, als_config.f)
        pals_cols = workers * tiny_ratings.train.shape[1]
        assert vol["total_columns_shipped"] < pals_cols


class TestCostModel:
    def test_cost_entry_arithmetic(self):
        entry = CostEntry("X", baseline_nodes=10, baseline_price_per_node_hr=0.5, baseline_seconds=3600, cumf_seconds=360)
        assert entry.baseline_cost == pytest.approx(5.0)
        assert entry.cumf_cost == pytest.approx(2.44 * 0.1)
        assert entry.speedup == pytest.approx(10.0)
        assert entry.cost_ratio == pytest.approx(0.0488, rel=1e-3)
        assert entry.cost_efficiency == pytest.approx(1 / 0.0488, rel=1e-3)

    def test_cost_of_run(self):
        cluster = ClusterSpec(AWS_M3_XLARGE, 32)
        assert cost_of_run(cluster, 3600) == pytest.approx(0.27 * 32)

    def test_table1_entries_structure(self):
        entries = table1_entries(1000, 100, 240, 24, 563, 92)
        assert [e.baseline for e in entries] == ["NOMAD", "SparkALS", "Factorbird"]
        assert all(e.speedup > 1 for e in entries)
