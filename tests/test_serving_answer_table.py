"""Model check of the store's answer tables: every answer equals an exact oracle across mutations.

A hypothesis state machine drives one :class:`FactorStore` or
:class:`TieredFactorStore` through top-k queries interleaved with every
operation that changes what a query should return: fold-in, snapshot
swaps (a refresh's, to an equal Θ, to a Θ one ulp away, to new
factors, with some x rows changed, keeping or dropping the fold-ins),
item growth, replication and a round trip through a snapshot registry
version (publish, then build a store of it).  Factors are small
integers, so float32 scores are exact: every answer must equal the
plain-NumPy oracle and, bit for bit, a fresh
:meth:`~FactorStore.replicate` (empty tables) answering the same query.
A fold-in user's ratings are ``Θ_I · x*`` for an integer ``x*`` and
full-rank ``Θ_I`` with λ = 0, so the solved factor rounds to ``x*`` in
the float32 scoring copy and stays exact too.  After every mutation the
machine asks every served user under each table's exclude, so each row
the mutation kept or dropped is checked.

Besides the answers the machine counts: ``stats.queries`` and
``stats.batches`` count every query and call, and the users the store
scores (``stats.rows_scored`` of them) are exactly those whose current
epoch has not answered them yet.  The epochs are modelled from the
contract: ``exclude=None`` and the matrices keep a table each; a table
starts anew at a ``k`` wider than every one asked of it and (matrices)
at an exclude that is not the very object it was filled under; and a
write keeps a row only when Θ keeps its bytes and shape, the user's x row
keeps its bytes and, under a matrix, the user's mask is unchanged
(trained on both sides, or folded in on both with the same items).
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import ALSConfig
from repro.core.trainer import CuMF
from repro.datasets import DatasetSpec, generate_ratings
from repro.serving import CacheConfig, FactorStore, QueryTrace, ServingConfig, SnapshotRegistry, TieredFactorStore
from repro.sparse.csr import CSRMatrix
from tests.test_serving_store import _GENERATED, _assert_bitwise_equal, _count_scored, _generated_store, _oracle_topk

# Rows of every seen-item matrix: more than the users a run can reach (8 trained + one fold-in per step), so a
# matrix still masks every trained user after a swap turns the fold-ins into trained users.
_SEEN_ROWS = 32


def _ints(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(-3, 4, size=shape).astype(np.float64)


class AnswerTableMachine(RuleBasedStateMachine):
    @initialize(
        tiered=st.booleans(),
        n_users=st.integers(2, 8),
        n_items=st.integers(3, 24),
        f=st.integers(1, 3),
        n_shards=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def build(self, tiered, n_users, n_items, f, n_shards, seed):
        self.rng = np.random.default_rng(seed)
        self.cls = TieredFactorStore if tiered else FactorStore
        self.x, self.theta = _ints(self.rng, (n_users, f)), _ints(self.rng, (n_items, f))
        self.n_trained = n_users
        self.folded = {}
        self.a, self.b = self._seen_matrix(), self._seen_matrix()
        self._adopt(self.cls(self.x, self.theta, lam=0.0, n_shards=n_shards))

    def _seen_matrix(self) -> CSRMatrix:
        n_items = self.theta.shape[0]
        nnz = int(self.rng.integers(0, 3 * _SEEN_ROWS))
        rows, cols = self.rng.integers(0, _SEEN_ROWS, nnz), self.rng.integers(0, n_items, nnz)
        return CSRMatrix.from_arrays((_SEEN_ROWS, n_items), rows, cols, np.ones(nnz))

    def _adopt(self, store) -> None:
        """Serve from ``store`` (fresh stats, no tables) and record the users it scores."""
        self.store = store
        self.queries = self.batches = self.rows = 0
        self.scored = _count_scored(store)
        self.tables = [None, None]  # per kind (None, matrix): (exclude object, width, users known), or None

    def _seen_of(self, exclude):
        def seen_of(user):
            if exclude is None:
                return np.empty(0, dtype=np.int64)
            return self.folded[user] if user >= self.n_trained else exclude.row(user)[0]

        return seen_of

    @rule(data=st.data(), which=st.sampled_from(["none", "a", "b", "equal copy of a"]), user_block=st.sampled_from([1, 3, 8, 512]))
    def recommend(self, data, which, user_block):
        users = data.draw(st.lists(st.integers(0, self.x.shape[0] - 1), min_size=1, max_size=24), label="users")
        k = data.draw(st.integers(1, self.theta.shape[0] + 2), label="k")
        a = self.a
        exclude = {"none": None, "a": a, "b": self.b, "equal copy of a": CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(), a.data.copy())}[which]
        self._check(np.array(users), k, exclude, user_block)

    def _check(self, users, k, exclude, user_block):
        """Ask for ``users``' top-k; check the answers against both oracles, the rows scored and the epochs."""
        kk = min(k, self.theta.shape[0])
        slot = exclude is not None
        table = self.tables[slot]
        if table is None or table[0] is not exclude or table[1] < kk:
            table = self.tables[slot] = (exclude, kk, set())
        fresh = set(users.tolist()) - table[2]
        table[2].update(fresh)
        self.scored.clear()

        want = self.store.replicate().recommend_batch(users, k=k, exclude=exclude, user_block=user_block)
        got = self.store.recommend_batch(users, k=k, exclude=exclude, user_block=user_block)
        assert got == _oracle_topk(self.x.astype(np.float32), self.theta.astype(np.float32), users, k, self._seen_of(exclude))
        _assert_bitwise_equal((got.ids, got.scores), (want.ids, want.scores))
        assert sorted(np.concatenate(self.scored).tolist() if self.scored else []) == sorted(fresh)
        self.queries += users.size
        self.batches += -(-users.size // user_block)
        self.rows += len(fresh)

    def _ask_again(self):
        """Ask every served user right after a mutation, under each table's exclude and width (``None`` and ``a`` without one).

        Every row of both tables is then checked: exactly the users whose
        rows the mutation changed (or whose rows no table holds) are scored.
        """
        everyone = np.arange(self.x.shape[0])
        for default, table in zip((None, self.a), self.tables):
            exclude, k = table[:2] if table is not None else (default, 3)
            self._check(everyone, k, exclude, 512)

    def _write(self, x, theta, n_trained, folded) -> None:
        """Model a write to ``(x, theta)`` with fold-in state ``(n_trained, folded)``: keep the table rows it leaves unchanged."""
        old_x, old_n_trained, old_folded = self.x, self.n_trained, self.folded
        if theta.shape != self.theta.shape or theta.tobytes() != self.theta.tobytes():
            self.tables = [None, None]
        for slot, table in enumerate(self.tables):
            if table is None:
                continue

            def alike(user):
                if user >= min(x.shape[0], old_x.shape[0]) or x[user].tobytes() != old_x[user].tobytes():
                    return False
                if not slot or user < min(n_trained, old_n_trained):
                    return True
                return user >= max(n_trained, old_n_trained) and np.array_equal(folded[user], old_folded[user])

            self.tables[slot] = (table[0], table[1], {user for user in table[2] if alike(user)})
        self.x, self.theta, self.n_trained, self.folded = x, theta, n_trained, folded

    @rule(seed=st.integers(0, 2**32 - 1))
    def fold_in(self, seed):
        rng = np.random.default_rng(seed)
        n_items, f = self.theta.shape
        items = rng.choice(n_items, size=min(n_items, f + 2), replace=False)
        if np.linalg.matrix_rank(self.theta[items]) < f:  # the λ = 0 solve needs full column rank
            return
        target = rng.choice([-2.0, -1.0, 1.0, 2.0], size=f)
        user = self.store.fold_in(items, self.theta[items] @ target)
        assert user == self.x.shape[0] and (self.store._model.x_score[user] == target).all()
        # The solved float64 row (its float32 copy is target): a later swap that keeps the fold-ins keeps these bits.
        self._write(np.vstack([self.x, self.store.x[user]]), self.theta, self.n_trained, {**self.folded, user: np.unique(items)})
        self._ask_again()

    @rule(
        seed=st.integers(0, 2**32 - 1),
        theta_kind=st.sampled_from(["equal", "one ulp away", "new", "new, one more item"]),
        keep_fold_ins=st.booleans(),
        n_changed=st.integers(0, 3),
    )
    def swap_snapshot(self, seed, theta_kind, keep_fold_ins, n_changed):
        """Swap to a snapshot of the trained users (or of every user) with some x rows redrawn."""
        rng = np.random.default_rng(seed)
        theta = np.array(self.theta)
        if theta_kind == "one ulp away":
            at = tuple(rng.integers(0, theta.shape))
            theta[at] = np.nextafter(theta[at], np.inf)
        elif theta_kind != "equal":
            theta = _ints(rng, (self.theta.shape[0] + (theta_kind == "new, one more item"), theta.shape[1]))
        self._swap(rng, theta, keep_fold_ins, n_changed)

    @rule(seed=st.integers(0, 2**32 - 1), n_changed=st.integers(0, 2))
    def refresh(self, seed, n_changed):
        """The swap a refresh publishes: Θ kept, a few users re-solved, and every fold-in a trained user now."""
        self._swap(np.random.default_rng(seed), self.theta, True, n_changed)

    def _swap(self, rng, theta, keep_fold_ins, n_changed):
        x = np.array(self.x if keep_fold_ins else self.x[: self.n_trained])
        changed = rng.choice(x.shape[0], size=min(n_changed, x.shape[0]), replace=False)
        x[changed] = _ints(rng, (changed.size, x.shape[1]))
        self.store.swap_snapshot(x, theta)
        self._write(x, theta, x.shape[0], {})
        if theta.shape[0] != self.a.shape[1]:  # seen matrices must have one column per item; same-shape ones are kept
            self.a, self.b = self._seen_matrix(), self._seen_matrix()
        self._ask_again()

    @rule(seed=st.integers(0, 2**32 - 1), n_new=st.integers(1, 3))
    def grow_items(self, seed, n_new):
        rows = _ints(np.random.default_rng(seed), (n_new, self.theta.shape[1]))
        assert self.store.grow_items(rows) == self.theta.shape[0]
        self._write(self.x, np.vstack([self.theta, rows]), self.n_trained, self.folded)
        self.a, self.b = (CSRMatrix((m.shape[0], self.theta.shape[0]), m.indptr, m.indices, m.data) for m in (self.a, self.b))
        self._ask_again()

    @rule()
    def replicate(self):
        self._adopt(self.store.replicate())
        self._ask_again()

    @rule()
    def publish_and_build(self):
        with tempfile.TemporaryDirectory() as directory:
            registry = SnapshotRegistry(directory)
            self._adopt(registry.build_store(registry.publish_store(self.store), store_cls=self.cls, n_shards=self.store.n_shards))
        self._ask_again()

    @invariant()
    def every_query_call_and_scored_row_is_counted(self):
        stats = self.store.stats
        assert (stats.queries, stats.batches, stats.rows_scored) == (self.queries, self.batches, self.rows)

    @invariant()
    def no_stale_cache_hits(self):
        assert getattr(self.store, "cache_stats", None) is None or self.store.cache_stats.stale_hits == 0


AnswerTableMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=15, deadline=None)
TestAnswerTableModel = AnswerTableMachine.TestCase


@settings(max_examples=80, deadline=None)
@given(**_GENERATED, huge=st.booleans(), wider=st.integers(0, 40))
def test_narrow_answer_is_a_prefix_of_a_wide_one(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed, huge, wider):
    """The table reads a top-kk answer off the first kk columns of a wider one; that needs exact selection."""
    n_shards, kk = min(n_shards, n_items), min(kk, n_items)
    store, exclude, block, _ = _generated_store(n_shards, n_items, f, n_trained, n_folded, kk, batch, masked, seed, huge=huge)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = store._score_block(np.unique(block), exclude)
    ids, top = FactorStore._select_topk(scores, min(kk + wider, n_items))
    _assert_bitwise_equal(FactorStore._select_topk(scores, kk), (ids[:, :kk], top[:, :kk]))


def test_a_refresh_with_theta_unchanged_rescores_only_the_changed_rows(tmp_path):
    """The serve-lifecycle shape: 3 tiered replicas, rates and fold-ins, a refresh, then a replay rolling the refresh out.

    The refresh re-solves the rated and folded-in users against a frozen Θ,
    so the replay scores only those rows: every other user's row is
    inherited by the fold-ins' models and by the refreshed model.
    """
    data = generate_ratings(DatasetSpec("rows", 400, 300, 6_000, 8, 0.05, kind="synthetic"), seed=0)
    model = CuMF(ALSConfig(f=8, lam=0.05, iterations=2, seed=0), backend="mo")
    model.fit(data.train)
    cache = CacheConfig(hot_fraction=0.2, page_items=16, plan_window_s=5e-4)
    service = model.serve(ServingConfig(replicas=3, n_shards=2, registry_dir=str(tmp_path), ratings=data.train, cache=cache))
    cluster, rng = service.backend, np.random.default_rng(0)
    n_trained = service.n_users
    assert service.recommend(np.arange(n_trained), k=10, exclude=None).status == "ok"  # every row in the shared table
    for user in rng.choice(n_trained, size=12, replace=False):
        assert service.rate(int(user), rng.choice(300, size=2, replace=False), np.array([4.0, 2.0])).status == "ok"
    folded = {service.fold_in(rng.choice(300, size=8, replace=False), rng.uniform(1.0, 5.0, size=8)) for _ in range(5)}
    assert cluster.stats_dict()["rows_scored"] == n_trained  # a fold-in keeps every row
    old = cluster.replicas[0]._model

    service.refresh(tag="r1")
    scored = [_count_scored(rep) for rep in cluster.replicas]
    trace = QueryTrace.poisson(3000, 200_000.0, service.n_users, seed=1)
    events = service.plan_rollout(start_s=0.25 * trace.duration, step_s=0.2 * trace.duration)
    service.simulate(trace, events, k=10, exclude=None)

    new = cluster.replicas[0]._model
    assert service.versions() == ["v1"] * 3 and new.theta.tobytes() == old.theta.tobytes()
    changed = {user for user in range(n_trained) if new.x[user].tobytes() != old.x[user].tobytes()}
    assert 0 < len(changed) <= 12
    rows = np.concatenate([block for blocks in scored for block in blocks])
    assert set(rows.tolist()) <= changed | folded
    assert cluster.stats_dict()["rows_scored"] == n_trained + rows.size
    assert all(rep.cache_stats.stale_hits == 0 for rep in cluster.replicas)
