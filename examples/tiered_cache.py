#!/usr/bin/env python
"""Heat-aware multi-tier factor cache: hot GPU pages for head items.

Item popularity is Zipf-distributed, so a small slice of Θ answers most
top-k queries.  This example turns on :mod:`repro.serving.cache`:

* a decaying :class:`HeatSketch` scores item pages from the live query
  stream;
* the :class:`CachePlanner` promotes the hottest pages into a
  byte-capped simulated GPU tier in coalesced H2D waves and demotes the
  coldest, with hysteresis so the hot set does not thrash;
* queries landing on warm/cold pages pay accounted transfer (and disk
  seek) time on the simulated clock, so hit rate shows up in p95;
* a model rollout invalidates every cached page — the registry version
  stamp guarantees no stale factors are ever served.

Run:  python examples/tiered_cache.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core import ALSConfig, CuMF
from repro.datasets import DatasetSpec, generate_ratings
from repro.serving import CacheConfig, QueryTrace, ServingConfig


def run(registry_dir: str) -> None:
    # A wide item axis (4k items) so the tier split is visible: the hot
    # tier holds a real fraction of Θ, not a rounding error.
    spec = DatasetSpec("tiered-demo", 1200, 4000, 40_000, 16, 0.05, kind="synthetic")
    data = generate_ratings(spec, seed=0, noise_sigma=0.3)
    n_users = data.train.shape[0]

    model = CuMF(ALSConfig(f=16, lam=0.05, iterations=4, seed=1), backend="mo")
    model.fit(data.train)

    # The tiering contract lives in the config: 15% of Θ resident on the
    # simulated GPU, a bounded host-warm tier, the rest on "disk".
    service = model.serve(
        ServingConfig(
            replicas=2,
            n_shards=2,
            ratings=data.train,
            registry_dir=registry_dir,
            cache=CacheConfig(
                hot_fraction=0.15,
                warm_bytes=int(0.5 * spec.n * 16 * 4),
                page_items=64,
                half_life_s=0.5,
                plan_window_s=1e-3,
            ),
        )
    )
    print(f"serving: {service!r}")

    # Replay skewed traffic: the planner learns the head and promotes it.
    trace = QueryTrace.poisson(4000, 20_000.0, n_users, seed=11, user_exponent=1.1)
    report = service.simulate(trace, k=10, max_batch=64, window_s=2e-3)
    print()
    print(report.summary())

    unit = service.backend.serving_units()[0]
    resident = unit.resident_bytes()
    print("\nresident bytes per tier (replica 0):")
    for tier, nbytes in resident.items():
        print(f"  {tier:>10}: {nbytes:>10,d}")

    # Lifecycle composition: a refresh + rollout invalidates every page.
    service.rate(0, np.array([1, 2]), np.array([5.0, 4.0])).raise_for_status()
    service.refresh()
    snap = service.rollout()
    stats = unit.cache_stats
    print(
        f"\nafter rollout to {snap.label}: hot tier flushed "
        f"({unit.resident_bytes()['gpu-hot']:,d} bytes), "
        f"{stats.invalidations} invalidation(s), {stats.stale_hits} stale hits ever"
    )

    # Traffic re-warms the new version's pages; still zero stale answers.
    rewarm = service.simulate(
        QueryTrace.poisson(2000, 20_000.0, n_users, seed=12, user_exponent=1.1),
        k=10,
        max_batch=64,
        window_s=2e-3,
    )
    print()
    print(rewarm.summary())
    print(f"stale hits after re-warm: {unit.cache_stats.stale_hits}")


def main() -> None:
    # A fresh registry per run, so the rolled-out version label is the same every time.
    with tempfile.TemporaryDirectory(prefix="repro-tiered-cache-") as registry_dir:
        run(registry_dir)


if __name__ == "__main__":
    main()
