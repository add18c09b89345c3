"""Query-servable snapshot of trained factors, sharded across devices.

:class:`FactorStore` is the bridge between training and serving.  It
freezes the factor matrices of a :class:`~repro.core.config.FitResult`
(any backend), shards Θ row-wise over the devices of a simulated
:class:`~repro.gpu.machine.MultiGPUMachine` with the same
:class:`~repro.sparse.partition.Partition1D` machinery SU-ALS uses for
training, and answers top-k queries in batches:

* a batch of B users is scored against all N items in blocked matmuls
  (one GEMM per Θ shard, i.e. per device), in single precision like the
  cuMF kernels;
* items a user has already rated are masked out from a CSR matrix
  (typically the training matrix) with one gather over its ``indptr``;
* each user is scored and selected once per served snapshot: the
  store keeps an answer table of every top-k row it has computed, and a
  later query by the same user reads the stored row;
* the host selects each user's exact top-k from the whole score block
  (descending score, ties by ascending item id), scanning only the
  column groups that can hold a winner;
* the answers stay arrays (:class:`TopK`): a row is boxed into
  ``(item, score)`` pairs only when a caller reads it;
* the simulated clock charges the classic scatter/gather top-k of a
  sharded recommender tier instead — a score+select kernel per shard,
  then a D2H copy of each shard's k candidates for a host merge, for
  every query of the batch, whether or not the table answered it.  Both
  give the same answer, because the top-k of the union of the shards'
  top-k lists is the top-k of the whole row;
* every batch advances the machine's simulated clock with per-device
  kernel and transfer estimates via :mod:`repro.gpu.kernel`, so the
  batching advantage (Θ is read once per batch instead of once per
  query) is visible in simulated throughput exactly like the training
  figures.

Factors are stored in float64 for numerics (predict, fold-in) and in a
single-precision scoring copy for the top-k path.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.checkpoint import CheckpointManager
from repro.core.config import ALSConfig, FitResult
from repro.core.kernels import FLOAT_BYTES, batch_solve_profile, get_hermitian_profile
from repro.gpu.kernel import KernelProfile
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import MemoryKind
from repro.serving.foldin import fold_in_user, validate_ratings
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import Partition1D

__all__ = ["FactorStore", "ServingStats", "TopK"]

# Largest factor entry the float32 scoring copies hold without overflowing to inf.
_SCORE_MAX = float(np.finfo(np.float32).max)


class _Gated(NamedTuple):
    """Factor masters that already passed :meth:`FactorStore._checked_factors` (read-only)."""

    x: np.ndarray
    theta: np.ndarray


class TopK(Sequence):
    """One batch's top-k answers, kept as arrays; a row is boxed only when read.

    ``ids`` is ``(b, kk)`` int64 and ``scores`` ``(b, kk)`` float32, each
    row sorted by descending score with ties by ascending item id.
    ``valid`` marks the entries that are answers: the finite scores.  A
    row whose user has fewer than ``kk`` unseen items ends in ``-inf``
    entries, and a score that overflowed to ``+inf`` sorts first, so the
    valid entries of a row are not always a prefix and a mask, not a
    count, says which they are.

    Indexing boxes one row into ``[(item, score), ...]`` of Python ints
    and floats, a slice is a ``TopK`` over the same rows, and a ``TopK``
    equals the list of its boxed rows (and prints as it).
    """

    __slots__ = ("ids", "scores", "valid")

    def __init__(self, ids: np.ndarray, scores: np.ndarray):
        self.ids = ids
        self.scores = scores
        self.valid = np.isfinite(scores)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TopK(self.ids[index], self.scores[index])
        row = operator.index(index)
        keep = self.valid[row]
        return list(zip(self.ids[row][keep].tolist(), self.scores[row][keep].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TopK, list)):
            return NotImplemented
        return len(self) == len(other) and all(mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class _Answers:
    """The answer table: every top-k row a store has computed in one (snapshot, exclude) epoch.

    Row ``u`` holds user ``u``'s top-``width`` ids and scores once
    ``known[u]`` is set.  A top-kk answer is the bitwise prefix of the
    top-width answer (:meth:`FactorStore._select_topk` is exact), so any
    ``kk <= width`` is read from the first kk columns.  ``exclude`` is the
    seen-item matrix the rows were masked with, held by reference: the
    table answers only calls that pass that very object.  The arrays are
    ``np.zeros``, so the pages of users nobody asks for cost no memory.
    """

    __slots__ = ("exclude", "ids", "scores", "known")

    def __init__(self, n_users: int, width: int, exclude: CSRMatrix | None):
        self.exclude = exclude
        self.ids = np.zeros((n_users, width), dtype=np.int64)
        self.scores = np.zeros((n_users, width), dtype=np.float32)
        self.known = np.zeros(n_users, dtype=bool)


@dataclass
class ServingStats:
    """Running counters of one store's serving activity.

    ``per_device_seconds`` holds *serving-only* kernel seconds per device
    (top-k scoring/selection and fold-in solves), accumulated as deltas —
    on a machine shared with training it deliberately excludes the
    training kernels that also raised ``dev.busy_seconds()``.
    """

    queries: int = 0
    batches: int = 0
    fold_ins: int = 0
    simulated_seconds: float = 0.0
    per_device_seconds: dict = field(default_factory=dict)

    def simulated_qps(self) -> float:
        """Queries per simulated second (inf for an idle store)."""
        if self.simulated_seconds == 0.0:
            return float("inf") if self.queries else 0.0
        return self.queries / self.simulated_seconds

    def as_dict(self) -> dict:
        """Plain-dict view for printing / reports."""
        return {
            "queries": self.queries,
            "batches": self.batches,
            "fold_ins": self.fold_ins,
            "simulated_seconds": self.simulated_seconds,
            "simulated_qps": self.simulated_qps(),
            "per_device_seconds": dict(self.per_device_seconds),
        }


class FactorStore:
    """Serves top-k recommendations from frozen factor matrices.

    Parameters
    ----------
    x, theta:
        Trained factor matrices, ``(m, f)`` and ``(n, f)``.
    lam:
        Regularization constant used for cold-start fold-ins (take it
        from the training config so a fold-in equals a training update).
    weighted:
        Whether fold-ins use the weighted-λ-regularization (eq. 1).
    machine:
        Simulated machine whose devices hold the Θ shards.  Defaults to
        a fresh machine with ``n_shards`` GPUs.
    n_shards:
        Number of row-wise Θ shards; defaults to the machine's GPU
        count (or 1 when neither is given).
    solver:
        Name of the solver that produced the factors (informational).
    version:
        Label of the model version being served (e.g. ``"v3"`` from a
        :class:`~repro.serving.lifecycle.SnapshotRegistry`); updated by
        :meth:`swap_snapshot` and reported per-version by the traffic
        simulator during rollouts.
    """

    def __init__(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        *,
        lam: float = 0.05,
        weighted: bool = True,
        machine: MultiGPUMachine | None = None,
        n_shards: int | None = None,
        solver: str = "",
        version: str = "",
    ):
        # Snapshot semantics: the store owns private, immutable copies, so
        # later training runs cannot mutate what is being served.  A
        # replicate() clone shares its source's gated read-only arrays.
        x, theta = x if isinstance(x, _Gated) else self._checked_factors({"x": x, "theta": theta})
        if lam < 0:
            raise ValueError("lam must be non-negative")
        if machine is not None and n_shards is not None and n_shards != machine.n_gpus:
            raise ValueError(f"asked for {n_shards} shards on a machine with {machine.n_gpus} GPUs")
        if n_shards is None:
            n_shards = machine.n_gpus if machine is not None else 1
        if not 1 <= n_shards <= max(1, theta.shape[0]):
            raise ValueError(f"n_shards must be in [1, {max(1, theta.shape[0])}]")

        # Users [0, _n_trained_users) came from training and map 1:1 onto
        # the rows of an exclude matrix; later fold-ins live above this.
        self._n_trained_users = x.shape[0]
        self.lam = float(lam)
        self.weighted = weighted
        self.solver = solver
        self.version = str(version)
        self.machine = machine or MultiGPUMachine(n_gpus=n_shards)
        self.stats = ServingStats()
        self._install_factors(x, theta, n_shards)
        self._folded_items: dict[int, np.ndarray] = {}

    @staticmethod
    def _checked_factors(factors: dict, f: int | None = None) -> list[np.ndarray]:
        """Private C-order float64 copies of the named factor matrices.

        The one gate factors pass on their way into the served state
        (construction, and so :meth:`load`; :meth:`swap_snapshot`;
        :meth:`grow_items`).  Every matrix must be 2-D, all must share
        one latent dimension (``f`` when given), and every entry must be
        finite and within the float32 range of the scoring copies: a
        diverged fit's NaN row, or an entry that overflows to ``inf`` in
        float32, would otherwise rank first in selection and be left out
        of the answer, so its users would silently get fewer than ``k`` items.
        """
        copies = [np.array(v, dtype=np.float64, order="C", copy=True) for v in factors.values()]
        names = list(factors)
        if f is not None:
            for name, m in zip(names, copies):
                if m.ndim != 2 or m.shape[1] != f:
                    raise ValueError(f"{name} must have shape (j, {f})")
        elif any(m.ndim != 2 for m in copies):
            raise ValueError(f"{' and '.join(names)} must be 2-D factor matrices")
        elif copies[0].shape[1] != copies[-1].shape[1]:
            raise ValueError(f"factor dimensions disagree: {names[0]} has f={copies[0].shape[1]}, {names[-1]} f={copies[-1].shape[1]}")
        for name, m in zip(names, copies):
            if not np.isfinite(m).all():
                raise ValueError(f"{name} has non-finite entries (NaN or inf); refusing to serve it")
            if m.size and np.abs(m).max() > _SCORE_MAX:
                raise ValueError(f"{name} has entries beyond the float32 range (±{_SCORE_MAX:.4g}); refusing to serve it")
        return copies

    def _install_factors(self, x: np.ndarray, theta: np.ndarray, n_shards: int) -> None:
        """(Re)build the served state from immutable factor matrices.

        Shared by construction and :meth:`swap_snapshot`: installs the
        float64 masters, the single-precision scoring copies, the Θ
        partition and the per-device shards, and the kernel-profile
        config.
        """
        x.setflags(write=False)
        self.x = x
        self._x_score = np.ascontiguousarray(x, dtype=np.float32)
        self._install_theta(theta, n_shards)
        # Profile construction reuses the training kernel models, which
        # are parameterised by an ALSConfig.
        self._profile_config = ALSConfig(f=x.shape[1], lam=self.lam)

    def _install_theta(self, theta: np.ndarray, n_shards: int) -> None:
        """(Re)build only the Θ side: master, partition and shards.

        :meth:`grow_items` comes through here so appending item rows does
        not recopy the (unchanged) X scoring matrix or kernel profiles.
        Every answer computed so far is dropped with the old Θ.
        """
        theta.setflags(write=False)
        self.theta = theta
        self.partition = Partition1D(theta.shape[0], n_shards)
        self._shards = [np.ascontiguousarray(theta[lo:hi], dtype=np.float32) for lo, hi in (self.partition.range_of(i) for i in range(n_shards))]
        self._answers: _Answers | None = None

    # ------------------------------------------------------------------ #
    # construction / persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_result(cls, result: FitResult, **kwargs) -> "FactorStore":
        """Snapshot a finished training run (any backend)."""
        if result.config is not None:
            kwargs.setdefault("lam", result.config.lam)
        kwargs.setdefault("solver", result.solver)
        return cls(result.x, result.theta, **kwargs)

    @classmethod
    def load(cls, directory: str, **kwargs) -> "FactorStore":
        """Restore a store from a directory written by :meth:`save`.

        The on-disk format is the trainer's checkpoint layer, so a store
        can equally be built from a mid-training checkpoint directory.
        ``lam``/``weighted`` saved by :meth:`save` are restored unless
        overridden via ``kwargs``, and the fold-in bookkeeping (trained
        user count plus each folded user's item set) is restored when
        present, so exclusion behaves exactly as before the save.
        """
        restored = CheckpointManager(directory).latest()
        if restored is None:
            raise ValueError(f"no checkpoint found in {directory!r}")
        if "lam" in restored.extras:
            kwargs.setdefault("lam", float(restored.extras["lam"]))
        if "weighted" in restored.extras:
            kwargs.setdefault("weighted", bool(restored.extras["weighted"]))
        if "version" in restored.extras:
            kwargs.setdefault("version", str(restored.extras["version"]))
        cls._restore_extras(restored.extras, kwargs)
        store = cls(restored.x, restored.theta, **kwargs)
        if "n_trained_users" in restored.extras:
            n_trained = int(restored.extras["n_trained_users"])
            indptr = np.asarray(restored.extras["foldin_indptr"], dtype=np.int64)
            items = np.asarray(restored.extras["foldin_items"], dtype=np.int64)
            folded = {n_trained + j: items[indptr[j] : indptr[j + 1]].copy() for j in range(indptr.size - 1)}
            store._restore_fold_state(n_trained, folded)
        return store

    def save(self, directory: str) -> str:
        """Persist the factors through the checkpoint layer; returns the path.

        Folded-in users are included (the saved X has one row per user
        the store currently knows), as are the ``lam``/``weighted``
        fold-in hyper-parameters and the fold-in bookkeeping — the
        trained-user count plus a CSR-style encoding of each folded
        user's item set — so :meth:`load` reproduces fold-in and
        exclusion behaviour exactly.  The snapshot is written as the
        directory's new latest checkpoint; earlier *store* snapshots in
        the directory are garbage-collected (only the newest is servable)
        but a trainer's own checkpoints are never deleted, so a shared
        mid-training checkpoint directory keeps its history.
        """
        folded = [self._folded_items[u] for u in range(self._n_trained_users, self.n_users)]
        sizes = np.array([seg.size for seg in folded], dtype=np.int64)
        indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])
        items = np.concatenate(folded) if folded else np.empty(0, dtype=np.int64)
        manager = CheckpointManager(directory, keep=1)
        existing = manager.list_iterations()
        # Become the *latest* checkpoint (so load() restores this snapshot;
        # saving below an existing iteration would even prune the file
        # written here) while retention is widened so the manager's own
        # pruning cannot evict a trainer's checkpoints from a shared
        # directory.
        manager.keep = len(existing) + 1
        iteration = existing[-1] + 1 if existing else 0
        path = manager.save(
            iteration,
            self.x,
            self.theta,
            lam=np.float64(self.lam),
            weighted=np.bool_(self.weighted),
            version=np.str_(self.version),
            n_trained_users=np.int64(self._n_trained_users),
            foldin_indptr=indptr,
            foldin_items=items,
            protected=np.bool_(True),
            **self._snapshot_extras(),
        )
        # GC superseded store snapshots (recognisable by their fold-in
        # extras) so repeated saves into one directory keep exactly one
        # servable file; training checkpoints lack the marker and survive.
        for old_iteration in existing:
            old_path = os.path.join(manager.directory, f"cumf_iter{old_iteration}.npz")
            try:
                with np.load(old_path) as blob:
                    is_store_snapshot = "n_trained_users" in blob.files
            except (OSError, ValueError):  # pragma: no cover - benign race
                continue
            if is_store_snapshot:
                os.remove(old_path)
        return path

    def _snapshot_extras(self) -> dict:
        """Extra arrays subclasses persist with :meth:`save` (none here).

        Together with :meth:`_restore_extras` and :meth:`_clone_kwargs`
        this lets a subclass (e.g. the tiered cache front) round-trip its
        own configuration through save/load/replicate without overriding
        the whole methods.
        """
        return {}

    @classmethod
    def _restore_extras(cls, extras: dict, kwargs: dict) -> None:
        """Turn saved :meth:`_snapshot_extras` back into constructor kwargs."""

    def _clone_kwargs(self) -> dict:
        """Extra constructor kwargs :meth:`replicate` forwards (none here)."""
        return {}

    def _restore_fold_state(self, n_trained_users: int, folded_items: dict) -> None:
        """Adopt fold-in bookkeeping from a saved or replicated store (it changes what is masked, so answers drop)."""
        if not 0 <= n_trained_users <= self.n_users:
            raise ValueError(f"n_trained_users must be in [0, {self.n_users}], got {n_trained_users}")
        if set(folded_items) != set(range(n_trained_users, self.n_users)):
            raise ValueError("folded-items map must cover exactly the rows above n_trained_users")
        self._n_trained_users = int(n_trained_users)
        self._folded_items = {int(u): np.asarray(seg, dtype=np.int64) for u, seg in folded_items.items()}
        self._answers = None

    def replicate(self, *, machine: MultiGPUMachine | None = None, n_shards: int | None = None) -> "FactorStore":
        """An independent copy of this snapshot on a fresh simulated machine.

        The clone serves the same users — trained and folded-in alike,
        with identical exclusion behaviour — on its own machine/clock
        with zeroed stats, so replicas accumulate simulated time
        independently.  It shares the source's factor masters: they
        passed the gate already and are read-only, and every write
        (fold-in, swap, item growth) installs new arrays rather than
        touching them.  This is the building
        block :class:`~repro.serving.cluster.ServingCluster` replicates.
        """
        if machine is None and n_shards is None:
            n_shards = self.n_shards
        clone = type(self)(
            _Gated(self.x, self.theta),
            None,
            lam=self.lam,
            weighted=self.weighted,
            machine=machine,
            n_shards=n_shards,
            solver=self.solver,
            version=self.version,
            **self._clone_kwargs(),
        )
        clone._restore_fold_state(
            self._n_trained_users,
            {u: seg.copy() for u, seg in self._folded_items.items()},
        )
        return clone

    # ------------------------------------------------------------------ #
    # lifecycle hooks: snapshot swap and item growth
    # ------------------------------------------------------------------ #
    def swap_snapshot(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        *,
        lam: float | None = None,
        weighted: bool | None = None,
        version: str | None = None,
        solver: str | None = None,
    ) -> None:
        """Replace the served model in place — the zero-downtime rollout hook.

        The store keeps its machine, clock and running stats (it is the
        same serving process) but swaps in private immutable copies of
        the new factors, rebuilds the Θ shards over the same device
        count, and resets fold-in bookkeeping: every row of the new X is
        a trained user of the new snapshot.  The simulated clock is
        charged for shipping each device its new Θ shard, which is the
        load a real replica pays while drained.  ``lam``/``weighted``/
        ``version``/``solver`` update the serving metadata when given.
        """
        x, theta = self._checked_factors({"x": x, "theta": theta})
        if theta.shape[0] < self.n_shards:
            raise ValueError(f"new snapshot has {theta.shape[0]} items but the store keeps {self.n_shards} shards")
        if lam is not None:
            if lam < 0:
                raise ValueError("lam must be non-negative")
            self.lam = float(lam)
        if weighted is not None:
            self.weighted = bool(weighted)
        if version is not None:
            self.version = str(version)
        if solver is not None:
            self.solver = solver
        self._install_factors(x, theta, self.n_shards)
        self._n_trained_users = x.shape[0]
        self._folded_items = {}
        before = self.machine.elapsed_seconds()
        self.machine.run_transfers(
            [self.machine.h2d(i, self.partition.size_of(i) * self.f * FLOAT_BYTES, tag="swap-shard") for i in range(self.n_shards)],
            label="swap-h2d",
        )
        self.stats.simulated_seconds += self.machine.elapsed_seconds() - before

    def grow_items(self, new_theta: np.ndarray) -> int:
        """Append item rows to Θ; returns the id of the first new item.

        The item-side fold-in hook: the refresh step solves θ rows for
        items that arrived after training and every replica appends them
        here, so the item axis grows consistently across a cluster.  The
        partition is recomputed over the same shard count and the new
        rows are broadcast to every device on the simulated clock.
        Exclude matrices built for the old item count no longer match and
        must be regrown by the caller (or omitted).
        """
        (new_theta,) = self._checked_factors({"new item rows": new_theta}, f=self.f)
        start = self.n_items
        if new_theta.shape[0] == 0:
            return start
        theta = np.ascontiguousarray(np.vstack([self.theta, new_theta]))
        self._install_theta(theta, self.n_shards)
        before = self.machine.elapsed_seconds()
        self.machine.run_transfers(
            [self.machine.h2d(i, new_theta.shape[0] * self.f * FLOAT_BYTES, tag="grow-items") for i in range(self.n_shards)],
            label="grow-h2d",
        )
        self.stats.simulated_seconds += self.machine.elapsed_seconds() - before
        return start

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_users(self) -> int:
        """Number of user rows currently servable (including fold-ins)."""
        return self.x.shape[0]

    @property
    def n_items(self) -> int:
        """Number of items."""
        return self.theta.shape[0]

    @property
    def f(self) -> int:
        """Latent-feature dimension."""
        return self.x.shape[1]

    @property
    def n_shards(self) -> int:
        """Number of Θ shards (= serving devices)."""
        return len(self._shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.n_users} users x {self.n_items} items, f={self.f}, {self.n_shards} shards)"

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_index_array(values: np.ndarray, what: str) -> np.ndarray:
        """Coerce to 1-D int64 indices, rejecting fractional/bool inputs."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"{what} must be a 1-D array of indices")
        if values.size and not np.issubdtype(values.dtype, np.integer):
            raise ValueError(f"{what} must be integer indices, got dtype {values.dtype}")
        return values.astype(np.int64, copy=False)

    def _validate_users(self, users: np.ndarray) -> np.ndarray:
        users = self._as_index_array(users, "users")
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise ValueError(f"user index out of range: store serves users [0, {self.n_users})")
        return users

    def predict(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Predicted ratings for aligned user/item index arrays (float64)."""
        users = self._validate_users(np.atleast_1d(users))
        items = self._as_index_array(np.atleast_1d(items), "items")
        if users.shape != items.shape:
            raise ValueError("users and items must have the same shape")
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise ValueError(f"item index out of range: store serves items [0, {self.n_items})")
        if users.size:
            self._account_predict(users.size)
        return np.einsum("ij,ij->i", self.x[users], self.theta[items])

    def recommend(self, user: int, k: int = 10, exclude: CSRMatrix | None = None) -> list[tuple[int, float]]:
        """Top-``k`` ``(item, score)`` pairs for one user (single-query path = batch of 1)."""
        return self.recommend_batch(np.array([user]), k=k, exclude=exclude)[0]

    @staticmethod
    def check_topk_args(k: int, user_block: int = 512) -> None:
        """The one top-k argument check: ``ValueError`` for a bad ``k`` or ``user_block``.

        ``k`` must be an integer (not a bool) >= 1 and ``user_block`` an
        integer >= 1.  Routing front ends call it before they pick a
        replica, so a rejected request takes no routing slot and no
        clock charge.
        """
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {k!r}")
        if k <= 0:
            raise ValueError("k must be >= 1")
        if isinstance(user_block, bool) or not isinstance(user_block, (int, np.integer)) or user_block < 1:
            raise ValueError(f"user_block must be an integer >= 1, got {user_block!r}")

    def recommend_batch(
        self,
        users: np.ndarray,
        k: int = 10,
        exclude: CSRMatrix | None = None,
        user_block: int = 512,
    ) -> TopK:
        """Top-``k`` items for every user in ``users``.

        Returns a :class:`TopK` with one row per query: read as a
        sequence, each row is an ``[(item, score), ...]`` list sorted by
        descending score with ties broken by ascending item id, and
        excluded/invalid items filtered out — the same contract as the
        single-user :meth:`recommend`.  Rows are boxed only when read, so
        a caller that only needs the answers served (the traffic
        simulator) never boxes.  Scoring runs in blocks of
        ``user_block`` users to bound the ``block × n_items`` score
        buffer.  This is the one top-k entry point: the traffic simulator
        and every serving front end go through it.

        Each user is scored once per (snapshot, ``exclude``) epoch: the
        store's answer table keeps every row it computes, and later
        queries by that user, in this call or a later one, read the
        stored row (its first columns for a smaller ``k``).  So a user's
        answer is the one computed when the user was first scored in the
        epoch, bit for bit, whatever block or call repeats it.  The
        epoch ends when the factors, the item axis or the fold-in state
        change (:meth:`swap_snapshot`, :meth:`grow_items`,
        :meth:`fold_in`, :meth:`load`, :meth:`replicate`), when ``k``
        exceeds every ``k`` asked so far, or when ``exclude`` is another
        object than the last call's.  ``exclude`` is therefore read as a
        value: do not mutate a matrix in place between calls; pass a new
        one.  Every query is still charged to the simulated clock and
        counted in :attr:`stats`, whether the table answered it or not.
        """
        self.check_topk_args(k, user_block)
        users = self._validate_users(users)
        if exclude is not None:
            if exclude.shape[1] != self.n_items:
                raise ValueError("exclude matrix must have one column per item")
            if exclude.shape[0] < self._n_trained_users:
                raise ValueError(f"exclude matrix has {exclude.shape[0]} rows but the store was trained on {self._n_trained_users} users")
        kk = min(k, self.n_items)
        ids = np.empty((users.size, kk), dtype=np.int64)
        scores = np.empty((users.size, kk), dtype=np.float32)
        for start in range(0, users.size, user_block):
            stop = start + user_block
            ids[start:stop], scores[start:stop] = self._topk_block(users[start:stop], kk, exclude)
        return TopK(ids, scores)

    def _mask_seen(self, scores: np.ndarray, block: np.ndarray, exclude: CSRMatrix) -> None:
        """Set every item each user of ``block`` has already rated to ``-inf``.

        Trained users' rows of ``exclude`` are masked with one CSR gather:
        row ``r`` of the batch repeats over its user's row length, and the
        column indices are read at ``indptr[user] + (0 .. len - 1)``.  The
        few fold-in users above ``_n_trained_users`` mask their recorded
        fold-in items instead.
        """
        trained = block < self._n_trained_users
        rows = np.flatnonzero(trained)
        starts = exclude.indptr[block[rows]]
        lens = exclude.indptr[block[rows] + 1] - starts
        offsets = np.cumsum(lens) - lens
        gather = np.arange(lens.sum()) + np.repeat(starts - offsets, lens)
        scores[np.repeat(rows, lens), exclude.indices[gather]] = -np.inf
        for r in np.flatnonzero(~trained):
            seen = self._folded_items.get(int(block[r]))
            if seen is not None:
                scores[r, seen] = -np.inf

    def _topk_block(self, block: np.ndarray, kk: int, exclude: CSRMatrix | None) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``kk`` ids/scores for one block of users, one row per query.

        Scores (:meth:`_score_block`) and selects (:meth:`_select_topk`)
        only the block's distinct users the answer table lacks, stores
        their rows, and reads every query's answer from the table.  The
        table is rebuilt, empty and ``kk`` wide, when ``exclude`` is not
        the object it was filled under or ``kk`` is wider than it.  The
        simulated per-device time of the sharded dataflow is charged to
        the machine clock for all ``block.size`` queries.
        """
        answers = self._answers
        if answers is None or answers.exclude is not exclude or answers.ids.shape[1] < kk:
            answers = self._answers = _Answers(self.n_users, kk, exclude)
        missing = np.unique(block[~answers.known[block]])
        if missing.size:
            answers.ids[missing], answers.scores[missing] = self._select_topk(self._score_block(missing, exclude), answers.ids.shape[1])
            answers.known[missing] = True
        self._account_topk(block.size, kk)
        return answers.ids[block, :kk], answers.scores[block, :kk]

    def _score_block(self, block: np.ndarray, exclude: CSRMatrix | None) -> np.ndarray:
        """The float32 ``(b, n_items)`` scores of one block of users, seen items at ``-inf``.

        Each Θ shard is scored with one GEMM written in place into its
        columns of the block (the per-device GEMM the clock charges).
        """
        xb = self._x_score[block]
        scores = np.empty((block.size, self.n_items), dtype=np.float32)
        for i, shard in enumerate(self._shards):
            lo, hi = self.partition.range_of(i)
            np.matmul(xb, shard.T, out=scores[:, lo:hi])
        if exclude is not None:
            self._mask_seen(scores, block, exclude)
        return scores

    @staticmethod
    def _select_topk(scores: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's top-``kk`` ids and scores: descending score, ties by ascending item id.

        The row is cut into ``g = min(4·kk, n_items)`` contiguous column
        groups, and the kk-th largest group maximum ``t`` is a lower bound
        on the row's kk-th largest score (kk groups each hold an entry
        >= t), so the exact top-kk lies among the entries >= t.  Only the
        groups whose maximum reaches ``t`` (about kk of the g) are scanned,
        plus the ``n_items - g·width`` tail columns that join no group.
        NaN scores are never answers: a group's maximum ignores them, and
        an all-NaN group's maximum is ``-inf``, not NaN (which would rank
        above every real maximum and raise ``t`` past valid scores).  So
        the selection is exact over the non-NaN entries, and a top-kk
        answer is the bitwise prefix of any wider one.
        The candidates are ordered by one stable sort on an int64 key of
        (row, descending score); they arrive in ascending id within each
        row, so equal scores keep ascending ids.  Rows hold ``-inf`` past
        their last candidate.
        """
        b, n = scores.shape
        g = min(4 * kk, n)
        width = n // g
        head = scores[:, : g * width].reshape(b, g, width)
        group_max = np.fmax.reduce(head, axis=2, initial=-np.inf)
        threshold = np.partition(group_max, g - kk, axis=1)[:, g - kk]
        gr, gg = np.divmod(np.flatnonzero(group_max >= threshold[:, None]), g)
        groups = head[gr, gg]
        hit = np.flatnonzero(groups >= threshold[gr, None])
        j, w = np.divmod(hit, width)
        rows, cols, vals = gr[j], gg[j] * width + w, groups.ravel()[hit]
        if g * width < n:
            tail = scores[:, g * width :]
            tr, tc = np.divmod(np.flatnonzero(tail >= threshold[:, None]), n - g * width)
            rows, cols, vals = np.concatenate([rows, tr]), np.concatenate([cols, tc + g * width]), np.concatenate([vals, tail[tr, tc]])

        # Float32 bits mapped to an order-preserving int32; +0.0 first so -0.0 ties +0.0.
        bits = (vals + np.float32(0.0)).view(np.int32)
        asc = bits ^ ((bits >> 31) & 0x7FFFFFFF)
        order = np.argsort((rows << 32) - asc, kind="stable")
        counts = np.bincount(rows, minlength=b)
        rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        first = rank < kk
        keep = order[first]
        ids = np.zeros((b, kk), dtype=np.int64)
        top = np.full((b, kk), -np.inf, dtype=np.float32)
        ids[rows[keep], rank[first]] = cols[keep]
        top[rows[keep], rank[first]] = vals[keep]
        return ids, top

    # ------------------------------------------------------------------ #
    # simulated-time accounting
    # ------------------------------------------------------------------ #
    def _account_topk(self, b: int, kk: int) -> None:
        """Advance the simulated clock by one batched top-k pass.

        Per device: read the broadcast user-factor block and the
        resident Θ shard, write the dense score block, then a selection
        kernel reads the scores back and emits ``kk`` (id, score) pairs
        per user.  Candidate merging happens on the host after a D2H
        copy.  Reading Θ once per *batch* instead of once per *query* is
        what makes batched serving an order of magnitude faster here,
        just as on a real GPU.
        """
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
        """Advance the simulated clock by one pass scoring ``n`` (user, item) pairs.

        On device 0: the index pairs go up, one gather-dot kernel reads
        both factor rows of every pair (``2 n f`` floats) and writes
        ``n`` scores, and the scores come back down.  Top-k counters
        (``queries``, ``batches``) are left alone.
        """
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

    def _device_busy(self) -> list[float]:
        """Cumulative per-device kernel seconds (serving *and* anything else)."""
        return [self.machine.device(i).busy_seconds() for i in range(self.n_shards)]

    def _account_device_deltas(self, busy_before: list[float]) -> None:
        """Credit each device's kernel time since ``busy_before`` to serving.

        ``dev.busy_seconds()`` is cumulative over the device's lifetime —
        on a machine shared with training it includes training kernels —
        so the stats accumulate per-operation deltas instead of mirroring
        the raw counter.
        """
        for i, already_busy in enumerate(busy_before):
            delta = self.machine.device(i).busy_seconds() - already_busy
            if delta:
                self.stats.per_device_seconds[i] = self.stats.per_device_seconds.get(i, 0.0) + delta

    # ------------------------------------------------------------------ #
    # cold start
    # ------------------------------------------------------------------ #
    def fold_in(self, items: np.ndarray, ratings: np.ndarray) -> int:
        """Absorb a cold-start user; returns their new user index.

        The input passes the same :func:`~repro.serving.foldin.validate_ratings`
        gate as the standalone fold-in solver (integer dtype, range,
        duplicate-summing semantics), so bad ratings fail identically on
        both paths and no store state is touched on rejection.  The
        factor is then solved against the frozen Θ with the training
        kernels (one Base-ALS user update).  The new row is appended to
        both the float64 master and the scoring copy, so the user is
        immediately servable, and their fold-in items count as "seen"
        for exclusion purposes.  Recording the ratings for a later
        refresh is the serving cluster's job
        (:meth:`~repro.serving.cluster.ServingCluster.fold_in`).
        """
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
