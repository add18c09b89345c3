"""Reference core of the serving charge: per-shape charge records against per-call accounting.

A :class:`~repro.serving.store.FactorStore` prices each top-k pass once
per ``(b, kk)``, each predict pass once per ``n`` and each fold-in pass
once per ``nnz`` (``_Charge``), keeps the record until its Θ partition,
``n_items`` or ``f`` changes, and replays it on every call.  The per-call
accounting it replaced — build the transfer lists and kernel profiles,
then run them through the machine — lives on below, copied verbatim, as
the oracle (fold-in whole, and the per-device credit helpers, so the
oracle shares none of the store's charging code).  A hypothesis property drives generated
sequences of recommends, predicts, fold-ins, snapshot swaps (``n_items``
and ``f`` may change) and item growth through a store and its oracle twin,
on 1-4 shards of single- and dual-socket machines, plain and tiered, and
requires the clock, its per-label totals, every device counter, the
transfer engine's totals and the serving stats to agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import FLOAT_BYTES, batch_solve_profile, get_hermitian_profile
from repro.gpu.kernel import KernelProfile
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import MemoryKind
from repro.gpu.topology import MachineTopology
from repro.serving import CacheConfig, TieredFactorStore
from repro.serving.foldin import fold_in_user, validate_ratings
from repro.serving.store import FactorStore


# ---------------------------------------------------------------------- #
# the oracle: every pass charged by running it through the machine
# ---------------------------------------------------------------------- #
class _PerCallCharges:
    """The per-call ``_account_topk`` / ``_account_predict`` / ``fold_in`` and their helpers, as they were before per-shape records."""

    def _device_busy(self) -> list[float]:
        return [self.machine.device(i).busy_seconds() for i in range(self.n_shards)]

    def _account_device_deltas(self, busy_before: list[float]) -> None:
        for i, already_busy in enumerate(busy_before):
            delta = self.machine.device(i).busy_seconds() - already_busy
            if delta:
                self.stats.per_device_seconds[i] = self.stats.per_device_seconds.get(i, 0.0) + delta

    def _account_topk(self, b: int, kk: int) -> None:
        before = self.machine.elapsed_seconds()
        busy_before = self._device_busy()
        f = self.f
        self.machine.run_transfers(
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
        self.machine.run_parallel_kernels(profiles)
        self.machine.run_transfers(
            [self.machine.d2h(i, 2 * b * kk * FLOAT_BYTES, tag="serve-candidates") for i in range(self.n_shards)],
            label="serve-d2h",
        )
        elapsed = self.machine.elapsed_seconds() - before
        self.stats.queries += b
        self.stats.batches += 1
        self.stats.simulated_seconds += elapsed
        self._account_device_deltas(busy_before)

    def _account_predict(self, n: int) -> None:
        before = self.machine.elapsed_seconds()
        busy_before = self._device_busy()
        self.machine.run_transfers([self.machine.h2d(0, 2 * n * FLOAT_BYTES, tag="predict-pairs")], label="serve-h2d")
        dot = KernelProfile(
            name="predict_dot",
            flops=2.0 * n * self.f,
            traffic={MemoryKind.GLOBAL: float((2 * n * self.f + n) * FLOAT_BYTES)},
            blocks=n,
        )
        self.machine.run_parallel_kernels({0: dot})
        self.machine.run_transfers([self.machine.d2h(0, n * FLOAT_BYTES, tag="predict-scores")], label="serve-d2h")
        self.stats.simulated_seconds += self.machine.elapsed_seconds() - before
        self._account_device_deltas(busy_before)


    def fold_in(self, items: np.ndarray, ratings: np.ndarray) -> int:
        items, ratings = validate_ratings(items, ratings, self.n_items)
        factor = fold_in_user(items, ratings, self.theta, self.lam, weighted=self.weighted)
        user = self.n_users
        self.x = np.vstack([self.x, factor[None, :]])
        self.x.setflags(write=False)
        self._x_score = np.vstack([self._x_score, factor[None, :].astype(np.float32)])
        self._folded_items[user] = np.unique(items)
        self._answers = None

        # Simulated cost: one Hermitian assembly + one 1-row batched solve
        # on device 0, plus shipping the ratings up and the factor back.
        nnz = int(items.size)
        before = self.machine.elapsed_seconds()
        busy_before = self._device_busy()
        self.machine.run_transfers(
            [self.machine.h2d(0, 2 * nnz * FLOAT_BYTES, tag="foldin-ratings")],
            label="serve-h2d",
        )
        herm = get_hermitian_profile(self.machine.spec, 1, nnz, self.n_items, self._profile_config, name="foldin_hermitian")
        solve = batch_solve_profile(1, self.f, name="foldin_solve")
        self.machine.run_parallel_kernels({0: herm.merged(solve, name="foldin")})
        self.machine.run_transfers(
            [self.machine.d2h(0, self.f * FLOAT_BYTES, tag="foldin-factor")],
            label="serve-d2h",
        )
        self.stats.fold_ins += 1
        self.stats.simulated_seconds += self.machine.elapsed_seconds() - before
        self._account_device_deltas(busy_before)
        return user


class _ReferenceStore(_PerCallCharges, FactorStore):
    pass


class _ReferenceTiered(_PerCallCharges, TieredFactorStore):
    pass


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
    return _bits(state)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("recommend"), st.lists(st.integers(0, 10**6), min_size=1, max_size=24), st.integers(1, 12)),
        st.tuples(st.just("predict"), st.integers(1, 40)),
        st.tuples(st.just("fold_in"), st.integers(1, 6)),
        st.tuples(st.just("swap"), st.integers(0, 30), st.sampled_from([4, 6])),
        st.tuples(st.just("grow"), st.integers(0, 5)),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=80, deadline=None)
@given(
    shards=st.integers(1, 4),
    dual=st.booleans(),
    tiered=st.booleans(),
    seed=st.integers(0, 2**16),
    ops=_OPS,
)
def test_charge_records_replay_the_per_call_accounting(shards, dual, tiered, seed, ops):
    rng = np.random.default_rng(seed)
    n_users, n_items, f = 12, 20 + int(rng.integers(0, 20)), 6
    x, theta = rng.standard_normal((n_users, f)), rng.standard_normal((n_items, f))

    def build(kind):
        topology = (MachineTopology.dual_socket if dual else MachineTopology.single_socket)(shards)
        machine = MultiGPUMachine(n_gpus=shards, topology=topology)
        if tiered:
            return kind[1](x, theta, machine=machine, cache=CacheConfig(hot_fraction=0.3, page_items=4, plan_window_s=2e-5))
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
        else:
            rows = rng.standard_normal((args[0], store.f))
            assert store.grow_items(rows) == oracle.grow_items(rows)
        assert _state(store) == _state(oracle), op
