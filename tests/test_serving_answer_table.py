"""Model check of the store's answer table: every answer equals an exact oracle across mutations.

A hypothesis state machine drives one :class:`FactorStore` or
:class:`TieredFactorStore` through top-k queries interleaved with every
operation that changes what a query should return: fold-in, snapshot
swap, item growth, replication and a save/load round trip.  Factors are
small integers, so float32 scores are exact and every answer must equal
the plain-NumPy oracle.  A fold-in user's ratings are ``Θ_I · x*`` for an
integer ``x*`` and full-rank ``Θ_I`` with λ = 0, so the solved factor
rounds to ``x*`` in the float32 scoring copy and stays exact too.

Besides the answers the machine counts: ``stats.queries`` and
``stats.batches`` count every query and call, and the users the store
scores are exactly those the current (snapshot, exclude) epoch has not
answered yet.  The epoch is modelled from the contract: it ends at a
mutation, at a ``k`` wider than every one asked in it, and at an
``exclude`` that is not the very object of the last call.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.serving import FactorStore, TieredFactorStore
from repro.sparse.csr import CSRMatrix
from tests.test_serving_store import _GENERATED, _assert_bitwise_equal, _count_scored, _generated_store, _oracle_topk


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
        self.last = None
        self._adopt(self.cls(self.x, self.theta, lam=0.0, n_shards=n_shards))

    def _seen_matrix(self) -> CSRMatrix:
        n_items = self.theta.shape[0]
        nnz = int(self.rng.integers(0, 3 * self.n_trained))
        rows, cols = self.rng.integers(0, self.n_trained, nnz), self.rng.integers(0, n_items, nnz)
        return CSRMatrix.from_arrays((self.n_trained, n_items), rows, cols, np.ones(nnz))

    def _adopt(self, store) -> None:
        """Serve from ``store`` (fresh stats, empty table) and record the users it scores."""
        self.store = store
        self.queries = self.batches = 0
        self.scored = _count_scored(store)
        self._new_epoch()

    def _new_epoch(self) -> None:
        self.epoch = None  # (exclude object, widest kk) of the current epoch
        self.known = set()

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
        self._check(np.array(users), k, which, user_block)

    def _check(self, users, k, which, user_block):
        """Ask for ``users``' top-k; check the answers, the rows scored and the epoch."""
        self.last = (users, k, which, user_block)
        a = self.a
        exclude = {"none": None, "a": a, "b": self.b, "equal copy of a": CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(), a.data.copy())}[which]
        kk = min(k, self.theta.shape[0])
        if self.epoch is None or self.epoch[0] is not exclude or self.epoch[1] < kk:
            self.epoch = (exclude, kk)
            self.known = set()
        fresh = set(users.tolist()) - self.known
        self.known |= fresh
        self.scored.clear()

        got = self.store.recommend_batch(users, k=k, exclude=exclude, user_block=user_block)
        assert got == _oracle_topk(self.x, self.theta, users, k, self._seen_of(exclude))
        assert sorted(np.concatenate(self.scored).tolist() if self.scored else []) == sorted(fresh)
        self.queries += users.size
        self.batches += -(-users.size // user_block)

    def _ask_again(self):
        """Repeat the last query right after a mutation: every user still served must be scored afresh."""
        if self.last is not None:
            users, k, which, user_block = self.last
            users = users[users < self.x.shape[0]]
            if users.size:
                self._check(users, k, which, user_block)

    @rule(seed=st.integers(0, 2**32 - 1))
    def fold_in(self, seed):
        rng = np.random.default_rng(seed)
        n_items, f = self.theta.shape
        items = rng.choice(n_items, size=min(n_items, f + 2), replace=False)
        if np.linalg.matrix_rank(self.theta[items]) < f:  # the λ = 0 solve needs full column rank
            return
        target = rng.choice([-2.0, -1.0, 1.0, 2.0], size=f)
        user = self.store.fold_in(items, self.theta[items] @ target)
        assert user == self.x.shape[0] and (self.store._x_score[user] == target).all()
        self.x = np.vstack([self.x, target])
        self.folded[user] = np.unique(items)
        self._new_epoch()
        self._ask_again()

    @rule(seed=st.integers(0, 2**32 - 1), new_item=st.booleans())
    def swap_snapshot(self, seed, new_item):
        rng = np.random.default_rng(seed)
        f = self.theta.shape[1]
        self.x, self.theta = _ints(rng, (self.n_trained, f)), _ints(rng, (self.theta.shape[0] + new_item, f))
        self.store.swap_snapshot(self.x, self.theta)
        self.folded = {}
        if new_item:  # seen matrices must have one column per item; same-shape ones are kept
            self.a, self.b = self._seen_matrix(), self._seen_matrix()
        self._new_epoch()
        self._ask_again()

    @rule(seed=st.integers(0, 2**32 - 1), n_new=st.integers(1, 3))
    def grow_items(self, seed, n_new):
        rows = _ints(np.random.default_rng(seed), (n_new, self.theta.shape[1]))
        assert self.store.grow_items(rows) == self.theta.shape[0]
        self.theta = np.vstack([self.theta, rows])
        self.a, self.b = (CSRMatrix((m.shape[0], self.theta.shape[0]), m.indptr, m.indices, m.data) for m in (self.a, self.b))
        self._new_epoch()
        self._ask_again()

    @rule()
    def replicate(self):
        self._adopt(self.store.replicate())
        self._ask_again()

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as directory:
            self.store.save(directory)
            self._adopt(self.cls.load(directory, n_shards=self.store.n_shards))
        self._ask_again()

    @invariant()
    def every_query_and_call_is_counted(self):
        assert self.store.stats.queries == self.queries and self.store.stats.batches == self.batches

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
