"""Reference core of the serving charge: per-shape charge records against per-call accounting.

A :class:`~repro.serving.store.FactorStore` prices each top-k pass once
per ``(b, kk)``, each predict pass once per ``n`` and each fold-in pass
once per ``nnz`` (``_Charge``), keeps the record until its Θ partition,
``n_items`` or ``f`` changes, and replays it on every call.  The per-call
accounting it replaced — build the transfer lists and kernel profiles,
then run them through the machine — lives on below as the oracle
(fold-in whole, and the per-device credit helper, so the oracle shares
none of the store's charging code).  Like the store, the oracle credits
the stats the seconds that ``run_transfers`` and ``run_parallel_kernels``
return, and each device its kernel's estimated seconds, never a
difference of clock or ``busy_seconds()`` readings.  The tiered oracle
also keeps the demand path it replaced, ``_touch`` and
``_page_transfers``: per-tier page arrays and a transfer list run per
batch, where the store classifies pages with one ``bincount`` and
charges a fill report priced once per per-device byte vector.  A
hypothesis property drives generated sequences of recommends, predicts,
fold-ins, snapshot swaps (``n_items`` and ``f`` may change), item growth
and stale page stamps through a store and its oracle twin, on 1-4 shards
of single- and dual-socket machines, plain and tiered (with a bounded or
unbounded warm tier), and requires the clock, its per-label totals,
every device counter, the transfer engine's totals, the serving stats
and the page table to agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import FLOAT_BYTES, batch_solve_profile, get_hermitian_profile
from repro.gpu.kernel import KernelProfile, estimate_kernel_time
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import MemoryKind
from repro.gpu.topology import MachineTopology
import repro.obs as obs
from repro.serving import CacheConfig, TieredFactorStore
from repro.serving.cache.pages import TIER_COLD, TIER_HOT, TIER_WARM
from repro.serving.foldin import fold_in_user, validate_ratings
from repro.serving.store import FactorStore


# ---------------------------------------------------------------------- #
# the oracle: every pass charged by running it through the machine
# ---------------------------------------------------------------------- #
class _PerCallCharges:
    """The per-call ``_account_topk`` / ``_account_predict`` / ``fold_in`` as they were before per-shape records, crediting the seconds each run returns."""

    def _run_kernels(self, profiles: dict) -> float:
        """Run ``profiles`` (device → kernel) as one step, credit each device its kernel's seconds, and return the step's seconds."""
        for i, profile in profiles.items():
            seconds = estimate_kernel_time(self.machine.device(i).spec, profile)
            if seconds:
                self.stats.per_device_seconds[i] = self.stats.per_device_seconds.get(i, 0.0) + seconds
        return self.machine.run_parallel_kernels(profiles)

    def _account_topk(self, b: int, kk: int) -> None:
        f = self.f
        up = self.machine.run_transfers(
            [self.machine.h2d(i, b * f * FLOAT_BYTES, tag="serve-users") for i in range(self.n_shards)],
            label="serve-h2d",
        )
        profiles = {}
        for i in range(self.n_shards):
            width = self.partition.size_of(i)
            score = KernelProfile(
                name="serve_score",
                flops=2.0 * b * width * f,
                traffic={MemoryKind.GLOBAL: float((b * f + width * f + b * width) * FLOAT_BYTES)},
                blocks=b,
            )
            select = KernelProfile(
                name="serve_topk",
                flops=float(b * width),
                traffic={MemoryKind.GLOBAL: float((b * width + 2 * b * kk) * FLOAT_BYTES)},
                blocks=b,
            )
            profiles[i] = score.merged(select, name="serve_score+topk")
        kernels = self._run_kernels(profiles)
        down = self.machine.run_transfers(
            [self.machine.d2h(i, 2 * b * kk * FLOAT_BYTES, tag="serve-candidates") for i in range(self.n_shards)],
            label="serve-d2h",
        )
        self.stats.queries += b
        self.stats.batches += 1
        self.stats.simulated_seconds += up + kernels + down

    def _account_predict(self, n: int) -> None:
        up = self.machine.run_transfers([self.machine.h2d(0, 2 * n * FLOAT_BYTES, tag="predict-pairs")], label="serve-h2d")
        dot = KernelProfile(
            name="predict_dot",
            flops=2.0 * n * self.f,
            traffic={MemoryKind.GLOBAL: float((2 * n * self.f + n) * FLOAT_BYTES)},
            blocks=n,
        )
        kernels = self._run_kernels({0: dot})
        down = self.machine.run_transfers([self.machine.d2h(0, n * FLOAT_BYTES, tag="predict-scores")], label="serve-d2h")
        self.stats.simulated_seconds += up + kernels + down

    def fold_in(self, items: np.ndarray, ratings: np.ndarray) -> int:
        items, ratings = validate_ratings(items, ratings, self.n_items)
        factor = fold_in_user(items, ratings, self.theta, self.lam, weighted=self.weighted)
        user = self.n_users
        x = np.vstack([self.x, factor[None, :]])
        x.setflags(write=False)
        x_score = np.vstack([self._model.x_score, factor[None, :].astype(np.float32)])
        self._model = self._model.derive(x=x, x_score=x_score, folded_items={**self._folded_items, user: np.unique(items)})

        # Simulated cost: one Hermitian assembly + one 1-row batched solve
        # on device 0, plus shipping the ratings up and the factor back.
        nnz = int(items.size)
        up = self.machine.run_transfers(
            [self.machine.h2d(0, 2 * nnz * FLOAT_BYTES, tag="foldin-ratings")],
            label="serve-h2d",
        )
        herm = get_hermitian_profile(self.machine.spec, 1, nnz, self.n_items, self._profile_config, name="foldin_hermitian")
        solve = batch_solve_profile(1, self.f, name="foldin_solve")
        kernels = self._run_kernels({0: herm.merged(solve, name="foldin")})
        down = self.machine.run_transfers(
            [self.machine.d2h(0, self.f * FLOAT_BYTES, tag="foldin-factor")],
            label="serve-d2h",
        )
        self.stats.fold_ins += 1
        self.stats.simulated_seconds += up + kernels + down
        return user


class _ReferenceStore(_PerCallCharges, FactorStore):
    pass


class _ReferenceTiered(_PerCallCharges, TieredFactorStore):
    """The tiered store with its demand path as it was before the one-bincount ``_touch`` and priced fill reports."""

    def _touch(self, items: np.ndarray) -> None:
        """Demand the factor pages backing one batch's returned items.

        The batch's distinct items and their counts are the run starts
        and run lengths of the sorted items (what ``np.unique`` returns,
        without its general machinery), and only hot pages are checked
        for a stale stamp: a warm or cold page is fetched either way.
        """
        now = self.machine.elapsed_seconds()
        stats = self.cache_stats
        if items.size:
            ordered = np.sort(items)
            runs = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
            touched = ordered[runs[:-1]]
            self._heat.observe(touched, runs[1:] - runs[:-1], now)
            pages = self._pages.pages_of(touched)
            tiers = self._pages.tier[pages]
            hot = pages[tiers == TIER_HOT]
            warm = pages[tiers == TIER_WARM]
            cold = pages[tiers == TIER_COLD]
            hot_fresh = hot_stale = hot
            if hot.size:
                stale = self._pages.stale_mask(hot, self.version)
                hot_fresh, hot_stale = hot[~stale], hot[stale]
            stats.hits += int(hot_fresh.size)
            stats.stale_hits += int(hot_stale.size)
            stats.warm_misses += int(warm.size)
            stats.cold_misses += int(cold.size)

            fetch = np.concatenate([hot_stale, warm, cold])
            spent = 0.0
            if cold.size:
                cold_bytes = int(self._pages.page_bytes[cold].sum())
                spent = self.cache_config.cold_latency_s + cold_bytes / (self.cache_config.cold_bandwidth_gbs * 1e9)
                self.machine.clock.advance(spent, label="cache-cold-read")
            if fetch.size:
                spent += self.machine.run_transfers(self._page_transfers(fetch, self.machine.h2d, "cache-fill"), label="cache-fill-h2d")
            if spent:
                self.stats.simulated_seconds += spent
                stats.miss_seconds += spent

            if cold.size:
                self._pages.move(cold, TIER_WARM)
                stats.demand_fills += int(cold.size)
            if hot_stale.size:
                # Refetched from the (current-version) host copy: the
                # device page is now fresh again.
                self._pages.stamp_pages(hot_stale, self.version)
            self._enforce_warm_capacity(now)
            if obs.enabled():
                registry = obs.get_registry()
                if hot_fresh.size:
                    registry.counter("cache.hits", subsystem="serving").inc(int(hot_fresh.size))
                misses = int(hot_stale.size + warm.size + cold.size)
                if misses:
                    registry.counter("cache.misses", subsystem="serving").inc(misses)
                if hot_stale.size:
                    registry.counter("cache.stale_hits", subsystem="serving").inc(int(hot_stale.size))
        if now - self._last_plan >= self.cache_config.plan_window_s:
            self._run_plan()

    def _page_transfers(self, pages: np.ndarray, make, tag: str) -> list:
        """One ``make`` (``machine.h2d``/``d2h``) transfer per device owning any of ``pages`` (repeats count)."""
        owners = np.searchsorted(self.partition.bounds, pages * self._pages.page_items, side="right") - 1
        nbytes = np.bincount(owners, weights=self._pages.page_bytes[pages]).tolist()
        return [make(d, int(b), tag=tag) for d, b in enumerate(nbytes) if b]


# ---------------------------------------------------------------------- #
# the property
# ---------------------------------------------------------------------- #
def _bits(value):
    """``value`` with every float spelled exactly (``float.hex``), so ``==`` is a bitwise comparison."""
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


def _state(store) -> dict:
    """Everything a charge moves: clock, labels, device counters, engine totals, stats (and cache stats)."""
    machine = store.machine
    engine = machine.transfer_engine
    state = {
        "now": machine.clock.now,
        "breakdown": machine.clock.breakdown(),
        "devices": {i: vars(dev.counters) for i, dev in enumerate(machine.devices)},
        "engine": (engine.total_bytes_moved, engine.total_transfer_seconds, engine.batches),
        "stats": store.stats.as_dict(),
    }
    if isinstance(store, TieredFactorStore):
        state["cache"] = store.cache_stats.as_dict()
        state["pages"] = (store._pages.tier.tolist(), store._pages.stamps.tolist())
    return _bits(state)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("recommend"), st.lists(st.integers(0, 10**6), min_size=1, max_size=24), st.integers(1, 12)),
        st.tuples(st.just("predict"), st.integers(1, 40)),
        st.tuples(st.just("fold_in"), st.integers(1, 6)),
        st.tuples(st.just("swap"), st.integers(0, 30), st.sampled_from([4, 6])),
        st.tuples(st.just("grow"), st.integers(0, 5)),
        st.tuples(st.just("stale")),
        st.tuples(st.just("stale")),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(
    shards=st.integers(1, 4),
    dual=st.booleans(),
    tiered=st.booleans(),
    warm_pages=st.sampled_from([None, 2, 5]),
    seed=st.integers(0, 2**16),
    ops=_OPS,
)
def test_charge_records_replay_the_per_call_accounting(shards, dual, tiered, warm_pages, seed, ops):
    rng = np.random.default_rng(seed)
    n_users, n_items, f = 12, 20 + int(rng.integers(0, 20)), 6
    x, theta = rng.standard_normal((n_users, f)), rng.standard_normal((n_items, f))

    def build(kind):
        topology = (MachineTopology.dual_socket if dual else MachineTopology.single_socket)(shards)
        machine = MultiGPUMachine(n_gpus=shards, topology=topology)
        if tiered:
            # A bounded warm tier spills pages to disk, so later batches also pay cold misses.
            warm_bytes = None if warm_pages is None else warm_pages * 4 * f * 4
            return kind[1](x, theta, machine=machine, cache=CacheConfig(hot_fraction=0.3, page_items=4, plan_window_s=2e-5, warm_bytes=warm_bytes))
        return kind[0](x, theta, machine=machine)

    store, oracle = build((FactorStore, TieredFactorStore)), build((_ReferenceStore, _ReferenceTiered))
    assert _state(store) == _state(oracle)
    for op, *args in ops:
        if op == "recommend":
            users, k = args
            block = np.array(users) % store.n_users
            got, want = store.recommend_batch(block, k=k, user_block=7), oracle.recommend_batch(block, k=k, user_block=7)
            np.testing.assert_array_equal(got.ids, want.ids)
        elif op == "predict":
            users, items = rng.integers(0, store.n_users, args[0]), rng.integers(0, store.n_items, args[0])
            np.testing.assert_array_equal(store.predict(users, items), oracle.predict(users, items))
        elif op == "fold_in":
            items = rng.choice(store.n_items, size=min(args[0], store.n_items), replace=False)
            ratings = rng.uniform(1.0, 5.0, items.size)
            assert store.fold_in(items, ratings) == oracle.fold_in(items, ratings)
            np.testing.assert_array_equal(store.x, oracle.x)
        elif op == "swap":
            extra, new_f = args
            new_x, new_theta = rng.standard_normal((n_users, new_f)), rng.standard_normal((max(shards, n_items - 10 + extra), new_f))
            store.swap_snapshot(new_x, new_theta, version=f"v{extra}")
            oracle.swap_snapshot(new_x, new_theta, version=f"v{extra}")
        elif op == "grow":
            rows = rng.standard_normal((args[0], store.f))
            assert store.grow_items(rows) == oracle.grow_items(rows)
        elif tiered:
            # Stamp every page with an old version, so hot pages are refetched as stale hits.
            for twin in (store, oracle):
                twin._pages.stamp_pages(np.arange(twin._pages.n_pages), "stale")
        assert _state(store) == _state(oracle), op
