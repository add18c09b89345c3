#!/usr/bin/env python
"""Cluster serving: train -> replicate -> route -> fold in everywhere.

Trains MO-ALS on a synthetic workload, replicates the factor snapshot
into a :class:`ServingCluster` of four simulated machines, replays the
same bursty trace under each routing policy (round-robin vs
power-of-two-choices vs least-outstanding-work), shows the throughput
scaling from 1 to 4 replicas on a saturating trace, folds a cold-start
user into every replica write-through, and round-trips a store with
fold-ins through a snapshot registry version.

Run:  python examples/cluster_serving.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core import ALSConfig, CuMF
from repro.datasets import NETFLIX, generate_ratings
from repro.serving import FactorStore, QueryTrace, RequestSimulator, ServingCluster, SnapshotRegistry


def main() -> None:
    # 1. Train and snapshot once; the snapshot is what gets replicated.
    spec = NETFLIX.scaled(max_rows=6000, f=16)
    data = generate_ratings(spec, seed=0, noise_sigma=0.3)
    model = CuMF(ALSConfig(f=16, lam=0.05, iterations=5, seed=1), backend="mo")
    model.fit(data.train, data.test)
    #    (This drives the store/cluster layers directly; the unified front
    #    door is model.serve(ServingConfig(...)) -- see examples/service_api.py.)
    store = FactorStore.from_result(model.result, n_shards=2)
    print(f"trained + exported: {store}")

    # 2. One bursty trace, three routing policies on a 4-replica cluster.
    #    Bursts pile batches onto busy replicas: a load-blind rotation pays
    #    for it in tail latency, two random probes already avoid most of it.
    trace = QueryTrace.bursty(6000, 20_000.0, 1_000_000.0, store.n_users,
                              burst_every_s=0.02, burst_len_s=0.004, seed=5)
    print("\n-- routing policies, 4 replicas, same bursty trace --")
    for router in ("round-robin", "power-of-two", "least-loaded"):
        cluster = ServingCluster.from_store(store, 4, router=router)
        sim = RequestSimulator(cluster, k=10, max_batch=64, window_s=0.0)
        report = sim.run(trace)
        print(f"  {router:13s} p95 {report.latency_p95_s * 1e3:7.3f} ms   "
              f"p50 {report.latency_p50_s * 1e3:7.3f} ms")

    # 3. Throughput scaling: a saturating trace drains R times faster.
    hot = QueryTrace.poisson(12_000, 10_000_000.0, store.n_users, seed=3)
    print("\n-- replica scaling, saturating trace --")
    base_qps = None
    for n_replicas in (1, 2, 4):
        cluster = ServingCluster.from_result(model.result, n_replicas,
                                             router="least-loaded", n_shards=2)
        report = RequestSimulator(cluster, k=10, max_batch=256, window_s=0.0).run(hot)
        base_qps = base_qps or report.throughput_qps
        util = "/".join(f"{u:.0%}" for u in report.per_replica_utilization)
        print(f"  R={n_replicas}  {report.throughput_qps:12,.0f} qps "
              f"({report.throughput_qps / base_qps:.2f}x)   util {util}")

    # 4. Cold start on a cluster: the fold-in is written through to every
    #    replica, so the new user gets one id and identical answers anywhere.
    cluster = ServingCluster.from_store(store, 3, router="power-of-two")
    rng = np.random.default_rng(42)
    liked = rng.choice(store.n_items, size=10, replace=False)
    newcomer = cluster.fold_in(liked, rng.uniform(3.5, 5.0, size=liked.size))
    answers = {tuple(i for i, _ in rep.recommend(newcomer, k=5, exclude=data.train))
               for rep in cluster.replicas}
    print(f"\nfolded-in user {newcomer} on {cluster.n_replicas} replicas; "
          f"consistent top-5 everywhere: {len(answers) == 1}")

    # 5. A registry version keeps fold-in state: a store built from it still
    #    knows the newcomer's items, so exclusion works against the training
    #    matrix.
    single = cluster.replicas[0]
    with tempfile.TemporaryDirectory() as directory:
        registry = SnapshotRegistry(directory)
        reloaded = registry.build_store(registry.publish_store(single))
        same = (reloaded.recommend(newcomer, k=5, exclude=data.train)
                == single.recommend(newcomer, k=5, exclude=data.train))
        print(f"registry round-trip with fold-ins: identical recommendations: {same}")


if __name__ == "__main__":
    main()
