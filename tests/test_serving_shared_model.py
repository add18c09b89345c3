"""Replicas that serve one model share it: a shared-model cluster against independent replicas.

The replicas of a :class:`~repro.serving.cluster.ServingCluster` built
by ``from_store``/``from_result`` serve one model object: the gated
factors, their float32 scoring copies and shards, the fold-in state and
the answer table.  Cluster writes build each new model once (one fold-in
solve per distinct model, one grown Θ, one gated snapshot for the rolling
swap), and a write made directly on one store gives that store a model of
its own.  Each replica still keeps its own machine, clock, stats and
cache, and is charged every query and write it serves.

A hypothesis property runs one generated sequence of replay windows
(``serve_window``), cluster fold-ins, rolling swaps to new factors or
to a refresh's (Θ and most x rows kept, so answer rows are inherited),
immediate or planned by the cluster and stepped one event at a time (so
fold-ins and windows land mid-rollout on two models, and a generated
fold-in or item growth can land between planning and the first swap,
which must then refuse the snapshot), item growth, drain/restore and
direct fold-ins on one replica, on 1-3 replicas, plain and tiered,
through a shared-model cluster and an oracle cluster whose replicas are
gated separately and written one by one, so nothing is shared.
Factors are integer-valued (fold-in solutions rounded), so every
float32 score is exact and both sides must agree bit for bit: answers
(ids and scores), routing, errors, and per replica the clock, its label
totals, the device counters, the transfer totals, ``stats``,
``cache_stats`` and the page table.  The shared side must score exactly
one row per distinct (model, exclude, user), and a successor model's
answer tables, inherited or not, must never share memory with its
predecessor's.
"""

from __future__ import annotations

import tempfile
from functools import partial
from operator import methodcaller
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.store as store_module
from repro.core.config import ALSConfig
from repro.core.trainer import CuMF
from repro.serving import CacheConfig, FactorStore, ServingCluster, TieredFactorStore
from repro.serving.foldin import fold_in_user
from repro.serving.lifecycle import SnapshotRegistry
from repro.serving.simulator import serve_window
from repro.sparse.csr import CSRMatrix

N_USERS, N_ITEMS, F, K, SHARDS = 14, 24, 3, 4, 2
_CACHE = CacheConfig(hot_fraction=0.3, page_items=4, plan_window_s=2e-5)


def _rounded_fold_in(items, ratings, theta, lam, weighted=True):
    """The fold-in solution rounded to integers, so folded users' float32 scores stay exact too."""
    return np.round(fold_in_user(items, ratings, theta, lam, weighted=weighted))


def _integer_factors(rng: np.random.Generator, users: int, items: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.integers(-3, 4, (users, F)).astype(np.float64), rng.integers(-3, 4, (items, F)).astype(np.float64)


def _build(tiered: bool, x: np.ndarray, theta: np.ndarray) -> FactorStore:
    if tiered:
        return TieredFactorStore(x, theta, n_shards=SHARDS, cache=_CACHE)
    return FactorStore(x, theta, n_shards=SHARDS)


# ---------------------------------------------------------------------- #
# the oracle: every write applied replica by replica, nothing shared
# ---------------------------------------------------------------------- #
def _oracle_fold_in(cluster: ServingCluster, items, ratings) -> int:
    user = cluster.replicas[0].n_users
    if any(rep.n_users != user for rep in cluster.replicas):
        raise RuntimeError(f"replicas diverged: user counts {[rep.n_users for rep in cluster.replicas]}")
    for rep in cluster.replicas:
        assert rep.fold_in(items, ratings) == user
    return user


def _oracle_grow(cluster: ServingCluster, rows) -> int:
    start = cluster.replicas[0].n_items
    if any(rep.n_items != start for rep in cluster.replicas):
        raise RuntimeError(f"replicas diverged: item counts {[rep.n_items for rep in cluster.replicas]}")
    for rep in cluster.replicas:
        assert rep.grow_items(rows) == start
    return start


def _oracle_swap(cluster: ServingCluster, x, theta, version: str) -> None:
    for i, rep in enumerate(cluster.replicas):
        rotate = cluster.is_active(i) and cluster.n_active > 1
        if rotate:
            cluster.drain(i)
        rep.swap_snapshot(x, theta, version=version)
        if rotate:
            cluster.restore(i)


def _oracle_plan(cluster: ServingCluster, snap) -> list:
    """The rolling swap's events, each replica swapped through its own store (its own gate).

    The first replica to swap swaps to the snapshot, once the snapshot
    still covers every user and item the cluster serves (a write since
    planning makes the step raise, and the replica is restored all the
    same); every later replica swaps to what the replica swapped before
    it serves then, fold-ins included, so a mid-rollout cluster fold-in
    reaches the replicas still to swap.
    """
    swapped: list[FactorStore] = []

    def swap_and_restore(i):
        rep = cluster.replicas[i]
        try:
            if not swapped:
                cluster.check_axes(snap.x.shape[0], snap.theta.shape[0], "the snapshot")
                rep.swap_snapshot(snap.x, snap.theta, lam=snap.lam, weighted=snap.weighted, version=snap.label)
            else:
                lead = swapped[-1]
                rep.swap_snapshot(lead.x, lead.theta, lam=snap.lam, weighted=snap.weighted, version=snap.label)
                rep._restore_fold_state(lead._folded_items)
            swapped.append(rep)
        finally:
            cluster.restore(i)

    return [action for i in range(cluster.n_replicas) for action in (partial(cluster.drain, i), partial(swap_and_restore, i))]


# ---------------------------------------------------------------------- #
# the property
# ---------------------------------------------------------------------- #
def _bits(value):
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


def _state(cluster: ServingCluster) -> list:
    """Everything each replica owns: clock, labels, device counters, transfer totals, stats, cache; plus what it serves."""
    states = []
    for rep in cluster.replicas:
        machine, engine = rep.machine, rep.machine.transfer_engine
        state = {
            "now": machine.clock.now,
            "breakdown": machine.clock.breakdown(),
            "devices": {i: vars(dev.counters) for i, dev in enumerate(machine.devices)},
            "engine": (engine.total_bytes_moved, engine.total_transfer_seconds, engine.batches),
            "stats": rep.stats.as_dict(),
            "served": (rep.version, rep._n_trained_users, rep.x.tobytes(), rep.theta.tobytes(), {u: seg.tolist() for u, seg in rep._folded_items.items()}),
        }
        if isinstance(rep, TieredFactorStore):
            state["cache"] = rep.cache_stats.as_dict()
            state["pages"] = (rep._pages.tier.tolist(), rep._pages.stamps.tolist())
        states.append(_bits(state))
    return [states, cluster.active_indices()]


def _outcome(action, *args):
    """What ``action(*args)`` returned, or the type and message of the error it raised."""
    try:
        return action(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _steps(pending: list, n: int) -> tuple[list, list]:
    """Run the next ``n`` events of a planned rollout on both sides (and drop them)."""
    got = [_outcome(action) for action, _ in pending[:n]]
    want = [_outcome(action) for _, action in pending[:n]]
    del pending[:n]
    return got, want


def _window(cluster: ServingCluster, users: np.ndarray, exclude) -> tuple:
    """One replay window through the dispatch step, on the replicas' own timelines (as the facade serves)."""
    active = cluster.active_indices()
    free = [rep.stats.simulated_seconds for rep in cluster.replicas]
    call = methodcaller("recommend_batch", users, k=K, exclude=exclude, user_block=5)
    choice, [(topk, _, _)] = serve_window(cluster, active, free, min(free[r] for r in active), [call])
    return choice, topk.ids.tolist(), topk.scores.view(np.int32).tolist()


_WINDOW = st.tuples(st.just("window"), st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
_FOLD_IN = st.tuples(st.just("fold_in"), st.integers(1, 5))
# How many of its events run at once, the cluster write (if any) made between planning and those events, and
# whether the snapshot is a refresh's (see refresh_or_new).
_PLAN = st.tuples(st.just("plan"), st.integers(0, 6), st.sampled_from([None, "fold_in", "grow"]), st.booleans())
_STEP = st.tuples(st.just("step"), st.integers(1, 3))
_OPS = st.lists(
    st.one_of(
        *(_WINDOW,) * 3,
        *(_FOLD_IN, _PLAN, _STEP) * 2,
        st.tuples(st.just("swap"), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("grow"), st.integers(0, 3)),
        st.tuples(st.just("drain"), st.integers(0, 2)),
        st.tuples(st.just("restore"), st.integers(0, 2)),
        st.tuples(st.just("direct_fold_in"), st.integers(0, 2), st.integers(1, 4)),
    ),
    min_size=4,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(n_replicas=st.integers(1, 3), tiered=st.booleans(), masked=st.booleans(), seed=st.integers(0, 2**16), ops=_OPS)
def test_a_shared_model_serves_what_independent_replicas_serve(n_replicas, tiered, masked, seed, ops):
    rng = np.random.default_rng(seed)
    x, theta = _integer_factors(rng, N_USERS, N_ITEMS)
    shared = ServingCluster.from_store(_build(tiered, x, theta), n_replicas)
    oracle = ServingCluster([_build(tiered, x, theta) for _ in range(n_replicas)])
    assert all(rep._model is shared.replicas[0]._model for rep in shared.replicas)

    excludes: dict[int, CSRMatrix | None] = {}

    def exclude_for(n_items: int) -> CSRMatrix | None:
        """One seen-item matrix per item count, reused, so an epoch is (model, this object)."""
        if n_items not in excludes:
            seen = np.random.default_rng(n_items).random((200, n_items)) < 0.2
            excludes[n_items] = CSRMatrix.from_dense(seen.astype(np.float64)) if masked else None
        return excludes[n_items]

    scored: list[tuple] = []  # (model, exclude, user) of every row the shared side scores
    models: list = []  # every model scored on, kept alive so their ids stay distinct

    def count_rows(rep: FactorStore) -> None:
        score_block = rep._score_block

        def counted(block, exclude):
            models.append(rep._model)
            scored.extend((id(rep._model), id(exclude), int(user)) for user in block)
            return score_block(block, exclude)

        rep._score_block = counted

    for rep in shared.replicas:
        count_rows(rep)

    def fold_in(items, ratings) -> tuple:
        return _outcome(shared.fold_in, items, ratings), _outcome(_oracle_fold_in, oracle, items, ratings)

    def grow(rows) -> tuple:
        return _outcome(shared.grow_items, rows), _outcome(_oracle_grow, oracle, rows)

    def refresh_or_new(n_users: int, n_items: int, refresh: bool) -> tuple[np.ndarray, np.ndarray]:
        """New factors for a snapshot; a refresh's keeps Θ and every served x row but the last, so its model inherits answer rows."""
        x, theta = _integer_factors(rng, n_users, n_items)
        if refresh:
            lead = max(shared.replicas, key=lambda rep: rep.n_users)
            x[: lead.n_users - 1], theta = lead.x[: lead.n_users - 1], np.array(lead.theta)
        return x, theta

    with tempfile.TemporaryDirectory() as directory, mock.patch.object(store_module, "fold_in_user", _rounded_fold_in):
        registry = SnapshotRegistry(directory)
        pending: list[tuple] = []  # a planned rollout's (shared, oracle) actions, in order
        for step, (op, *args) in enumerate(ops):
            served = [rep._model for rep in shared.replicas]
            n_users, n_items = max(rep.n_users for rep in shared.replicas), min(rep.n_items for rep in shared.replicas)
            if op == "window":
                users = np.array(args[0]) % min(rep.n_users for rep in shared.replicas)
                got, want = (_outcome(_window, cluster, users, exclude_for(n_items)) for cluster in (shared, oracle))
            elif op in ("fold_in", "direct_fold_in"):
                items = rng.choice(n_items, size=min(args[-1], n_items), replace=False)
                ratings = rng.integers(1, 6, items.size).astype(np.float64)
                if op == "fold_in":
                    got, want = fold_in(items, ratings)
                else:
                    got, want = (_outcome(cluster.replicas[args[0] % n_replicas].fold_in, items, ratings) for cluster in (shared, oracle))
            elif op == "step":
                got, want = _steps(pending, args[0])
            elif pending:
                continue  # the item axis, the rotation and the snapshot change only between rollouts
            elif op == "grow":
                got, want = grow(rng.integers(-3, 4, (args[0], F)).astype(np.float64))
            elif op == "swap":
                new_x, new_theta = refresh_or_new(n_users + args[0], n_items, args[1])
                got, want = shared.swap_snapshot(new_x, new_theta, version=f"s{step}"), _oracle_swap(oracle, new_x, new_theta, f"s{step}")
            elif op == "plan" and n_replicas > 1 and shared.n_active == n_replicas:
                # A refresh's snapshot (every served user, fold-ins included), rolled out one event at a time.
                snap = registry.load(registry.publish(*refresh_or_new(n_users, n_items, args[2]), tag=f"p{step}"))
                events = shared.plan_swap(snap.x, snap.theta, lam=snap.lam, weighted=snap.weighted, version=snap.label, start_s=0.0, step_s=1.0)
                pending = list(zip([event.action for event in events], _oracle_plan(oracle, snap)))
                written = ()  # a write after planning: the snapshot no longer covers the cluster, so the first swap refuses it
                if args[1] == "fold_in":
                    items = rng.choice(n_items, size=min(3, n_items), replace=False)
                    written = fold_in(items, rng.integers(1, 6, items.size).astype(np.float64))
                elif args[1] == "grow":
                    written = grow(rng.integers(-3, 4, (1, F)).astype(np.float64))
                got, want = _steps(pending, args[0])
                got, want = [*written[:1], *got], [*written[1:], *want]
            else:
                i = args[0] % n_replicas
                if op == "drain" and shared.is_active(i) and shared.n_active > 1:
                    got, want = shared.drain(i), oracle.drain(i)
                elif op == "restore" and not shared.is_active(i):
                    got, want = shared.restore(i), oracle.restore(i)
                else:
                    continue
            assert got == want, op
            assert _state(shared) == _state(oracle), op
            for old, rep in zip(served, shared.replicas):  # a table is inherited by copy, never shared
                for mine, theirs in zip(rep._model.answers, old.answers):
                    if rep._model is not old and mine is not None and theirs is not None:
                        assert not any(np.shares_memory(a, b) for a, b in ((mine.ids, theirs.ids), (mine.scores, theirs.scores), (mine.known, theirs.known)))

    assert len(scored) == len(set(scored))  # one row per distinct (model, exclude, user)


# ---------------------------------------------------------------------- #
# who shares, and who does not
# ---------------------------------------------------------------------- #
def _scored_users(store: FactorStore) -> list:
    rows: list = []
    score_block = store._score_block

    def counted(block, exclude):
        rows.extend(block.tolist())
        return score_block(block, exclude)

    store._score_block = counted
    return rows


@pytest.mark.parametrize("cls", [FactorStore, TieredFactorStore])
def test_replicate_rescores_with_a_table_of_its_own(cls):
    rng = np.random.default_rng(3)
    store = cls(*_integer_factors(rng, N_USERS, N_ITEMS), n_shards=SHARDS)
    users = np.arange(N_USERS)
    want = store.recommend_batch(users, k=K)
    clone = store.replicate()
    assert clone._model is not store._model and clone.x is store.x and clone._model.shards is store._model.shards
    rows = _scored_users(clone)
    got = clone.recommend_batch(users, k=K)
    assert sorted(rows) == users.tolist()  # every user scored again
    assert got.ids.tolist() == want.ids.tolist() and got.scores.tobytes() == want.scores.tobytes()
    source_rows = _scored_users(store)
    store.recommend_batch(users, k=K)
    assert source_rows == []  # the source's table is its own and still full


def test_cluster_writes_build_each_model_once(monkeypatch):
    rng = np.random.default_rng(4)
    x, theta = _integer_factors(rng, N_USERS, N_ITEMS)
    cluster = ServingCluster.from_store(FactorStore(x, theta, n_shards=SHARDS), 3)
    gates, solves = [], []
    checked, solve = FactorStore._checked_factors, store_module.fold_in_user
    monkeypatch.setattr(FactorStore, "_checked_factors", staticmethod(lambda *a, **kw: gates.append(1) or checked(*a, **kw)))
    monkeypatch.setattr(store_module, "fold_in_user", lambda *a, **kw: solves.append(1) or solve(*a, **kw))

    cluster.swap_snapshot(x + 1.0, theta, version="v1")
    assert len(gates) == 1 and len({id(rep._model) for rep in cluster.replicas}) == 1
    user = cluster.fold_in(np.array([1, 2]), np.array([4.0, 5.0]))
    assert len(solves) == 1 and [rep.stats.fold_ins for rep in cluster.replicas] == [1, 1, 1]
    assert [rep.n_users for rep in cluster.replicas] == [user + 1] * 3
    cluster.grow_items(np.ones((2, F)))
    assert len({id(rep._model) for rep in cluster.replicas}) == 1

    # Mid-rollout (replica 0 on a new model): one solve per distinct model.
    cluster.replicas[0].swap_snapshot(cluster.replicas[0].x, cluster.replicas[0].theta + 1.0)
    solves.clear()
    cluster.fold_in(np.array([3]), np.array([2.0]))
    assert len(solves) == 2
    assert cluster.replicas[1]._model is cluster.replicas[2]._model is not cluster.replicas[0]._model

    # A write on one store gives it a model of its own.
    before = cluster.replicas[2]._model
    cluster.replicas[1].fold_in(np.array([4]), np.array([3.0]))
    assert cluster.replicas[2]._model is before and cluster.replicas[1]._model is not before


@pytest.mark.parametrize("cls", [FactorStore, TieredFactorStore])
def test_from_result_gates_one_model_for_every_replica(tiny_ratings, monkeypatch, cls):
    model = CuMF(ALSConfig(f=4, lam=0.05, iterations=2, seed=0), backend="base")
    model.fit(tiny_ratings.train)
    gates, checked = [], FactorStore._checked_factors
    monkeypatch.setattr(FactorStore, "_checked_factors", staticmethod(lambda *a, **kw: gates.append(1) or checked(*a, **kw)))
    cluster = ServingCluster.from_result(model.result, 3, store_cls=cls, n_shards=SHARDS)
    assert len(gates) == 1 and len({id(rep._model) for rep in cluster.replicas}) == 1
    assert len({id(rep.machine) for rep in cluster.replicas}) == 3 and all(type(rep) is cls for rep in cluster.replicas)
