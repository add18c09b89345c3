#!/usr/bin/env python
"""The unified serving API in five lines — and what each line buys.

The whole deployment is one declarative config and one call::

    model = CuMF(ALSConfig(f=16), backend="mo")
    model.fit(train)
    service = model.serve(ServingConfig(replicas=3, n_shards=2,
                                        registry_dir=dir, ratings=train))
    response = service.recommend(user, k=10)
    print(response.payload)

``service`` fronts one :class:`ServingCluster` (here 3 replicas; a
single replica is a 1-replica cluster) with a typed data plane — every predict / recommend / rate
returns a :class:`ServeResponse` carrying status, simulated latency,
the model version that answered and the replica that served — and an
admin plane for the lifecycle verbs (fold-in, refresh, snapshot,
rollout, rollback).  Bad requests come back as error envelopes instead
of exceptions, so a serving loop survives them.

Run:  python examples/service_api.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core import ALSConfig, CuMF
from repro.datasets import NETFLIX, generate_ratings
from repro.serving import RecommendRequest, ServingConfig


def main() -> None:
    rng = np.random.default_rng(7)
    spec = NETFLIX.scaled(max_rows=3000, f=16)
    data = generate_ratings(spec, seed=0, noise_sigma=0.3)
    n_users, n_items = data.train.shape

    model = CuMF(ALSConfig(f=16, lam=0.05, iterations=4, seed=1), backend="mo")
    model.fit(data.train, data.test)

    with tempfile.TemporaryDirectory() as directory:
        # One config, one call: 3 replicas x 2 shards, interaction log on,
        # snapshot registry at `directory`, training matrix as exclusion.
        service = model.serve(
            ServingConfig(replicas=3, n_shards=2, registry_dir=directory, ratings=data.train)
        )
        print(f"serving: {service!r}")

        # Data plane: every call returns one auditable envelope.
        response = service.recommend(np.array([0, 1, 2]), k=5)
        print(
            f"recommend -> status={response.status} version={response.version} "
            f"replica=r{response.replica} latency={response.latency_s * 1e3:.3f} ms"
        )
        for user, recs in zip((0, 1, 2), response.payload):
            print(f"  user {user}: top-5 = {[item for item, _ in recs]}")

        scored = service.predict(np.array([0, 1]), np.array([10, 11]))
        print(f"predict   -> {np.round(scored.payload, 3)} (version {scored.version})")

        # Errors are envelopes, not crashes — and carry the backend's
        # exact message (identical on a store and a cluster).
        bad = service.recommend(np.array([0]), k=0)
        print(f"bad k     -> status={bad.status} error={bad.error!r}")

        # Feedback flows through the data plane into the interaction log;
        # cold-start users enter through the admin plane's fold_in.
        for user in rng.choice(n_users, size=25, replace=False):
            items = rng.choice(n_items, size=4, replace=False)
            service.rate(int(user), items, rng.uniform(1.0, 5.0, size=4)).raise_for_status()
        newcomer = service.fold_in(
            rng.choice(n_items, size=8, replace=False), rng.uniform(3.0, 5.0, size=8)
        )
        print(f"logged feedback: {service.log!r} (fold-in user {newcomer})")

        # Admin plane: fold the log back in, publish v1, roll it out.
        refreshed = service.refresh()
        print(refreshed.summary())
        snap = service.rollout()
        print(f"rolled out {snap.label}: units now serve {service.versions()}")

        # The newcomer is a trained row of v1 and gets served like anyone.
        recs = service.recommend(RecommendRequest(users=newcomer, k=5))
        print(f"fold-in user {newcomer} on {recs.version}: top-5 = {[i for i, _ in recs.payload[0]]}")
        print(f"stats: {service.stats()['requests']}")


if __name__ == "__main__":
    main()
