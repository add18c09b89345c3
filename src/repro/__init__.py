"""repro — a pure-Python reproduction of cuMF (HPDC 2016).

cuMF ("Faster and Cheaper: Parallelizing Large-Scale Matrix Factorization
on GPUs", Tan, Cao & Fong) solves sparse matrix factorization with
memory-optimized Alternating Least Squares on one machine with up to four
GPUs.  This package rebuilds the whole system in Python on top of a
simulated GPU substrate:

* :mod:`repro.core` — the ALS solvers (Algorithm 1 base ALS, Algorithm 2
  MO-ALS, Algorithm 3 SU-ALS) as task graphs over the simulated GPUs,
  partition planner, checkpointing and the high-level :class:`repro.core.trainer.CuMF` API;
* :mod:`repro.gpu` — the simulated device: memory hierarchy, kernel cost
  model, PCIe topology and transfer engine;
* :mod:`repro.comm` — the reduction schemes of Figure 5;
* :mod:`repro.sparse` — from-scratch COO/CSR/CSC and partitioning;
* :mod:`repro.datasets` — workload registry and synthetic generators;
* :mod:`repro.baselines` / :mod:`repro.cluster` — the CPU competitors and
  the cluster cost model;
* :mod:`repro.serving` — the online half: a sharded
  :class:`~repro.serving.store.FactorStore` serving batched top-k
  queries, cold-start fold-in, and a query-traffic simulator;
* :mod:`repro.experiments` — one driver per table/figure of the paper.

Quick start::

    from repro.core import ALSConfig, CuMF
    from repro.datasets import DatasetSpec, generate_ratings

    data = generate_ratings(DatasetSpec("demo", 2000, 500, 60_000, 16, 0.05))
    model = CuMF(ALSConfig(f=16, lam=0.05, iterations=10), backend="mo")
    result = model.fit(data.train, data.test)
    print(result.final_test_rmse, model.recommend(user=0, k=5))
"""

from repro.core.config import ALSConfig
from repro.core.trainer import CuMF
from repro.serving import FactorStore, RequestSimulator

__version__ = "1.1.0"

__all__ = ["ALSConfig", "CuMF", "FactorStore", "RequestSimulator", "__version__"]
