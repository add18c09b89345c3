"""Query-servable snapshot of trained factors, sharded across devices.

:class:`FactorStore` is the bridge between training and serving.  It
freezes the factor matrices of a :class:`~repro.core.config.FitResult`
(any backend), shards Θ row-wise over the devices of a simulated
:class:`~repro.gpu.machine.MultiGPUMachine` with the same
:class:`~repro.sparse.partition.Partition1D` machinery SU-ALS uses for
training, and answers top-k queries in batches:

* a batch of B users is scored against all N items in blocked matmuls
  (one GEMM per Θ shard, i.e. per device), in single precision like the
  cuMF kernels, into one item-major ``(N, B)`` block: each shard's GEMM
  fills its own contiguous item rows of a per-thread workspace that every
  batch reuses;
* items a user has already rated are masked out from a CSR matrix
  (typically the training matrix) with one gather over its ``indptr``;
* each user is scored and selected once per served model: the model
  keeps an answer table of every top-k row computed on it (one for
  ``exclude=None`` and one for the last exclude matrix), and a later
  query by the same user reads the stored row.  A write that installs a
  successor model hands it the rows whose inputs it leaves unchanged
  (the same Θ bits and shard layout, the same x row, the same mask), so
  an answer outlives a fold-in or a swap to an equal Θ.  The replicas of
  a :class:`~repro.serving.cluster.ServingCluster` that serve one model
  share the model, its tables included, while each keeps its own
  machine, clock, stats (and cache); :meth:`FactorStore.replicate` makes
  a copy whose tables start empty;
* the host selects each user's exact top-k from the whole score block
  (descending score, ties by ascending item id).  Items are grouped by
  stride, so the group maxima reduce long contiguous slabs of the
  item-major block, and only the groups that can hold a winner are
  scanned;
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

import math
import mmap
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.config import ALSConfig, FitResult
from repro.core.kernels import FLOAT_BYTES, batch_solve_profile, get_hermitian_profile
from repro.gpu.kernel import KernelProfile
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import MemoryKind
from repro.gpu.transfer import Transfer, TransferReport
from repro.serving.foldin import fold_in_user, validate_ratings
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import Partition1D

__all__ = ["FactorStore", "ServingStats", "TopK"]

# Largest factor entry the float32 scoring copies hold without overflowing to inf.
_SCORE_MAX = float(np.finfo(np.float32).max)
# Each thread's scoring workspace (:func:`_score_buffer`): an anonymous mapping, private where the
# platform says so (Unix shares one by default), so a forked process gets a copy on write, not the buffer.
_workspace = threading.local()
_MAP_FLAGS = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _score_buffer(size: int) -> np.ndarray:
    """``size`` float32 entries of this thread's scoring workspace, which every score block is written into.

    The workspace is a memory mapping of its own, kept from block to block
    and doubled when a block outgrows it, so a block allocates nothing and
    its pages never come from the C heap.  A fresh ``n_items × b`` block
    per batch (10 MB at 10k items and 256 users) landed either in a hole
    the heap's history had left or in a new mapping, and that choice moved
    a replay's peak RSS by a block or two from one run to the next.  The
    pages a block touches stay resident: the workspace holds the largest
    block the thread has scored.
    """
    buf = getattr(_workspace, "scores", None)
    if buf is None or buf.size < size:
        capacity = max(size, 1024, 0 if buf is None else 2 * buf.size)
        _workspace.scores = buf = None  # the old mapping is released before the larger one is made
        buf = _workspace.scores = np.frombuffer(mmap.mmap(-1, capacity * 4, **_MAP_FLAGS), dtype=np.float32)
    return buf[:size]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``values`` and how often each occurs, as ``np.unique(values, return_counts=True)``.

    The distinct values are the run starts of the sorted values and the
    counts the run lengths: one sort and one comparison, without the
    general (hash-based) machinery ``np.unique`` runs first.
    """
    ordered = np.sort(values)
    if not ordered.size:
        return ordered, np.zeros(0, dtype=np.int64)
    runs = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    return ordered[runs[:-1]], runs[1:] - runs[:-1]


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
    """An answer table: every top-k row computed on one model for one ``exclude``.

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

    def carried(self, n_users: int, keep: np.ndarray) -> "_Answers":
        """A table of ``n_users`` rows, as wide and for the same ``exclude``, that knows this table's rows ``keep`` marks.

        ``keep`` is a mask over this table's first ``keep.size`` rows.  The
        whole prefix is copied in one go (the rows it does not keep are
        not known, so the next query scores them over the copy).
        """
        n = keep.size
        table = _Answers(n_users, self.ids.shape[1], self.exclude)
        table.ids[:n], table.scores[:n] = self.ids[:n], self.scores[:n]
        table.known[:n] = keep & self.known[:n]
        return table


class _Model:
    """One served model, shared by every replica that serves it.

    It holds the gated float64 masters ``x`` and ``theta`` (read-only),
    their float32 scoring copies (``x_score``, and ``shards``: one block
    of Θ rows per device of ``partition``), the fold-in state
    (``n_trained_users``, ``folded_items``) and ``answers``, its two
    answer tables (:meth:`table`): the one part that fills as queries
    arrive.  A write never changes a model; it builds a new one without
    tables (:meth:`folded`, :meth:`grown`, :meth:`derive`) that shares
    every array the write left alone.  When a store installs the new
    model, each table it lacks starts from the predecessor's rows whose
    inputs are unchanged (:meth:`inherit`), copied, so a table only holds
    rows computed from this model's inputs, and the replicas that serve
    one model read one pair of tables.
    """

    __slots__ = ("x", "theta", "x_score", "partition", "shards", "n_trained_users", "folded_items", "answers")

    def __init__(self, x: np.ndarray, theta: np.ndarray, n_shards: int, folded_items: dict[int, np.ndarray] | None = None):
        x.setflags(write=False)
        theta.setflags(write=False)
        self.x, self.theta = x, theta
        self.x_score = np.ascontiguousarray(x, dtype=np.float32)
        self.partition, self.shards = self._layout(theta, n_shards)
        # Users [0, n_trained_users) came from training and map 1:1 onto
        # the rows of an exclude matrix; the fold-ins above them map to
        # the items they rated.
        self.folded_items: dict[int, np.ndarray] = folded_items or {}
        self.n_trained_users = x.shape[0] - len(self.folded_items)
        # The tables for exclude=None and for the last exclude matrix asked with.
        self.answers: list[_Answers | None] = [None, None]

    @staticmethod
    def _layout(theta: np.ndarray, n_shards: int) -> tuple[Partition1D, list[np.ndarray]]:
        """The row partition of Θ over ``n_shards`` devices and each device's float32 shard."""
        partition = Partition1D(theta.shape[0], n_shards)
        return partition, [np.ascontiguousarray(theta[lo:hi], dtype=np.float32) for lo, hi in (partition.range_of(i) for i in range(n_shards))]

    @property
    def n_users(self) -> int:
        return self.x.shape[0]

    @property
    def n_items(self) -> int:
        return self.theta.shape[0]

    @property
    def f(self) -> int:
        return self.x.shape[1]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def derive(self, n_shards: int | None = None, **changes) -> "_Model":
        """A new model with ``changes`` applied, laid out over ``n_shards`` devices (default: as this one), and no tables."""
        if n_shards is not None and n_shards != self.n_shards:
            changes["partition"], changes["shards"] = self._layout(changes.get("theta", self.theta), n_shards)
        model = _Model.__new__(_Model)
        for name in _Model.__slots__:
            setattr(model, name, changes.get(name, getattr(self, name)))
        model.answers = [None, None]
        return model

    def table(self, exclude: CSRMatrix | None, kk: int) -> _Answers:
        """The answer table for ``exclude`` at least ``kk`` wide: the one kept, or a new empty one in its place.

        ``exclude=None`` and exclude matrices keep a table each, so the
        two kinds of caller do not empty each other's; a matrix other
        than the last one, or a ``kk`` wider than the table, starts its
        kind's table anew.
        """
        slot = exclude is not None
        answers = self.answers[slot]
        if answers is None or answers.exclude is not exclude or answers.ids.shape[1] < kk:
            answers = self.answers[slot] = _Answers(self.n_users, kk, exclude)
        return answers

    def inherit(self, old: "_Model") -> None:
        """Start each table this model lacks with copies of ``old``'s rows whose inputs this model leaves unchanged.

        A row carries when Θ is the same array
        or holds the same bits (compared as int64, so -0.0 differs from
        0.0), the item count and shard layout are the same, the user's x
        row holds the same bits, and, for an exclude matrix, the user's
        mask is the same: trained (a row of the matrix) on both sides, or
        folded in on both sides with the same items.
        """
        slots = [slot for slot in (0, 1) if self.answers[slot] is None and old.answers[slot] is not None]
        if not slots or (self.n_items, self.n_shards) != (old.n_items, old.n_shards):
            return
        if self.theta is not old.theta and not np.array_equal(self.theta.view(np.int64), old.theta.view(np.int64)):
            return
        n = min(self.n_users, old.n_users)
        same = np.ones(n, dtype=bool)
        same[np.flatnonzero(self.x[:n].view(np.int64) != old.x[:n].view(np.int64)) // self.f] = False  # the rows holding a changed entry
        for slot in slots:
            keep = same
            if slot:
                keep = same & (np.arange(n) < min(self.n_trained_users, old.n_trained_users))
                for user in range(max(self.n_trained_users, old.n_trained_users), n):
                    mine, theirs = self.folded_items.get(user), old.folded_items.get(user)
                    keep[user] = same[user] and (mine is theirs or (mine is not None and theirs is not None and np.array_equal(mine, theirs)))
            self.answers[slot] = old.answers[slot].carried(self.n_users, keep)

    def folded(self, items: np.ndarray, ratings: np.ndarray, lam: float, weighted: bool) -> tuple["_Model", int]:
        """This model with one cold-start user folded in, and the validated rating count.

        The input passes the same :func:`~repro.serving.foldin.validate_ratings`
        gate as the standalone fold-in solver, and the factor is solved
        against the frozen Θ with the training kernels (one Base-ALS user
        update).  The new row joins both the float64 master and the scoring
        copy, and the user's items count as seen for exclusion.
        """
        items, ratings = validate_ratings(items, ratings, self.n_items)
        factor = fold_in_user(items, ratings, self.theta, lam, weighted=weighted)
        x = np.vstack([self.x, factor[None, :]])
        x.setflags(write=False)
        x_score = np.vstack([self.x_score, factor[None, :].astype(np.float32)])
        folded_items = {**self.folded_items, self.n_users: np.unique(items)}
        return self.derive(x=x, x_score=x_score, folded_items=folded_items), int(items.size)

    def grown(self, new_theta: np.ndarray) -> "_Model":
        """This model with item rows appended to Θ (itself when there are none); the rows pass the factor gate."""
        (new_theta,) = FactorStore._checked_factors({"new item rows": new_theta}, f=self.f)
        if new_theta.shape[0] == 0:
            return self
        theta = np.ascontiguousarray(np.vstack([self.theta, new_theta]))
        theta.setflags(write=False)
        partition, shards = self._layout(theta, self.n_shards)
        return self.derive(theta=theta, partition=partition, shards=shards)


def _fold_state(n_users: int, folded_items: dict) -> dict[int, np.ndarray]:
    """The fold-in state of ``n_users`` users: ``folded_items`` with int64 item arrays, once it maps exactly the last ``len(folded_items)`` users."""
    if len(folded_items) > n_users or set(folded_items) != set(range(n_users - len(folded_items), n_users)):
        raise ValueError(f"folded_items must map exactly the last users of the {n_users} served, got users {sorted(folded_items)}")
    return {int(u): np.asarray(seg, dtype=np.int64) for u, seg in folded_items.items()}


class _Gated:
    """A new snapshot's factors, passed through the gate once, and the model of them each shard count serves (built once).

    ``folded_items`` is the snapshot's fold-in state: it maps the last
    ``len(folded_items)`` users of ``x`` to the items they rated, and
    every other row is a trained user (by default, every row).  Every
    replica that swaps to one ``_Gated`` installs the same model (one per
    shard count), so the rolling swap gates and lays out a snapshot once
    however many replicas it swaps.
    """

    def __init__(self, x: np.ndarray, theta: np.ndarray, folded_items: dict[int, np.ndarray] | None = None):
        self.x, self.theta = FactorStore._checked_factors({"x": x, "theta": theta})
        self.folded_items = _fold_state(self.x.shape[0], folded_items or {})
        self._models: dict[int, _Model] = {}

    def model(self, n_shards: int) -> _Model:
        """The model of this snapshot over ``n_shards`` devices."""
        if self.theta.shape[0] < n_shards:
            raise ValueError(f"new snapshot has {self.theta.shape[0]} items but the store keeps {n_shards} shards")
        model = self._models.get(n_shards)
        if model is None:
            model = self._models[n_shards] = _Model(self.x, self.theta, n_shards, self.folded_items)
        return model


class _Charge(NamedTuple):
    """One serving pass's simulated charge, priced once per shape and replayed per call.

    A pass is an H2D transfer batch, one parallel kernel step and a D2H
    transfer batch: ``up``/``down`` are the batches' transfer reports
    (``None`` when no byte moves) and ``kernels`` the step's priced
    launches.  :meth:`replay` charges them through the same machine
    methods running the pass goes through, so it leaves the clock, the
    transfer totals and the device counters bit for bit where running
    the pass would, and returns the seconds those methods return.
    """

    up: TransferReport | None
    kernels: tuple
    down: TransferReport | None

    @classmethod
    def price(cls, machine: MultiGPUMachine, up: list[Transfer], profiles: dict, down: list[Transfer]) -> "_Charge":
        """The charge of running ``up``, then ``profiles`` (device → kernel), then ``down`` on ``machine``."""
        engine = machine.transfer_engine
        return cls(engine.estimate(up), machine.price_kernels(profiles), engine.estimate(down))

    def replay(self, machine: MultiGPUMachine) -> float:
        """Charge the pass to ``machine``; returns its seconds (up + slowest kernel + down)."""
        up = machine.charge_transfers(self.up, label="serve-h2d")
        return up + machine.charge_kernels(self.kernels) + machine.charge_transfers(self.down, label="serve-d2h")


@dataclass
class ServingStats:
    """Running counters of one store's serving activity.

    ``simulated_seconds`` is the sum of the seconds every serving charge
    returned (:meth:`FactorStore._spend`), never a difference of clock
    readings, so equal calls add equal seconds however long the store
    has served.  ``per_device_seconds`` holds *serving-only* kernel
    seconds per device (top-k scoring/selection and fold-in solves), the
    priced launch seconds of each pass — on a machine shared with
    training it deliberately excludes the training kernels that also
    raised ``dev.busy_seconds()``.

    ``rows_scored`` counts the user rows this store actually scored and
    selected; the answer tables answered the other queries.  It is host
    work, not simulated traffic (every query is charged either way), so
    :meth:`as_dict` leaves it out and a cluster reports it in
    :meth:`~repro.serving.cluster.ServingCluster.stats_dict`.
    """

    queries: int = 0
    batches: int = 0
    fold_ins: int = 0
    simulated_seconds: float = 0.0
    per_device_seconds: dict = field(default_factory=dict)
    rows_scored: int = 0

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
        # later training runs cannot mutate what is being served.  A model
        # passed as ``x`` (by replicate() or a cluster) is served as is.
        model = x if isinstance(x, _Model) else None
        if model is None:
            x, theta = self._checked_factors({"x": x, "theta": theta})
        else:
            theta = model.theta
        if lam < 0:
            raise ValueError("lam must be non-negative")
        if machine is not None and n_shards is not None and n_shards != machine.n_gpus:
            raise ValueError(f"asked for {n_shards} shards on a machine with {machine.n_gpus} GPUs")
        if n_shards is None:
            n_shards = machine.n_gpus if machine is not None else model.n_shards if model is not None else 1
        if not 1 <= n_shards <= max(1, theta.shape[0]):
            raise ValueError(f"n_shards must be in [1, {max(1, theta.shape[0])}]")

        self.lam = float(lam)
        self.weighted = weighted
        self.solver = solver
        self.version = str(version)
        self.machine = machine or MultiGPUMachine(n_gpus=n_shards)
        self.stats = ServingStats()
        self._metered = 0.0  # seconds spent since serve_window last reset it
        self._model: _Model | None = None
        if model is None:
            model = _Model(x, theta, n_shards)
        elif model.n_shards != n_shards:
            model = model.derive(n_shards)
        self._install(model)

    @staticmethod
    def _checked_factors(factors: dict, f: int | None = None) -> list[np.ndarray]:
        """Private C-order float64 copies of the named factor matrices.

        The one gate factors pass on their way into the served state
        (construction, and so a registry's ``build_store``;
        :meth:`swap_snapshot`; :meth:`grow_items`).  Every matrix must be
        2-D, all must share one latent dimension (``f`` when given), and
        every entry must be finite and within the float32 range of the
        scoring copies: a diverged fit's NaN row, or an entry that
        overflows to ``inf`` in float32, would otherwise rank first in
        selection and be left out of the answer, so its users would
        silently get fewer than ``k`` items.
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

    def _install(self, model: _Model) -> None:
        """Serve ``model`` from now on.

        Every write (:meth:`_fold_to`, :meth:`_swap_to`, :meth:`_grow_to`,
        :meth:`_restore_fold_state`) comes through here while its
        predecessor is still served, so ``model`` starts each answer table
        it lacks from the predecessor's unchanged rows
        (:meth:`_Model.inherit`); the shared model of a cluster write is
        seeded by the first replica that installs it.  A constructor has
        no predecessor, so a new store, a :meth:`replicate` copy and a
        cluster's first replica start empty.  Per-shape charges (see
        :meth:`_charge`) and the kernel-profile config depend on the Θ
        partition and ``f``, so they are rebuilt when ``model`` lays Θ out
        anew; a fold-in's model keeps its parent's partition, and with it
        the charges.
        """
        if self._model is None or model.partition is not self._model.partition:
            self._charges: dict[tuple, _Charge] = {}
            # Profile construction reuses the training kernel models, which
            # are parameterised by an ALSConfig.
            self._profile_config = ALSConfig(f=model.f, lam=self.lam)
        if self._model is not None:
            model.inherit(self._model)
        self._model = model

    # The served model's state, read through the store.
    @property
    def x(self) -> np.ndarray:
        """The float64 user factors being served, fold-ins included (read-only)."""
        return self._model.x

    @property
    def theta(self) -> np.ndarray:
        """The float64 item factors being served (read-only)."""
        return self._model.theta

    @property
    def partition(self) -> Partition1D:
        """The row partition of Θ over the devices."""
        return self._model.partition

    @property
    def _n_trained_users(self) -> int:
        return self._model.n_trained_users

    @property
    def _folded_items(self) -> dict[int, np.ndarray]:
        return self._model.folded_items

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_result(cls, result: FitResult, **kwargs) -> "FactorStore":
        """Snapshot a finished training run (any backend)."""
        if result.config is not None:
            kwargs.setdefault("lam", result.config.lam)
        kwargs.setdefault("solver", result.solver)
        return cls(result.x, result.theta, **kwargs)

    def _clone_kwargs(self) -> dict:
        """Extra constructor kwargs :meth:`replicate` forwards (none here)."""
        return {}

    def _restore_fold_state(self, folded_items: dict) -> None:
        """Adopt fold-in bookkeeping (a registry version's): ``folded_items`` maps the last ``len(folded_items)`` users to their items.

        It changes what is masked, so the store gets a model of its own
        (inheriting the unchanged rows).
        """
        folded_items = _fold_state(self.n_users, folded_items)
        self._install(self._model.derive(n_trained_users=self.n_users - len(folded_items), folded_items=folded_items))

    def replicate(self, *, machine: MultiGPUMachine | None = None, n_shards: int | None = None) -> "FactorStore":
        """An independent copy of this snapshot on a fresh simulated machine.

        The clone serves the same users — trained and folded-in alike,
        with identical exclusion behaviour — on its own machine/clock
        with zeroed stats, so replicas accumulate simulated time
        independently.  It shares the source's factor arrays: they
        passed the gate already and are read-only, and every write
        (fold-in, swap, item growth) installs new arrays rather than
        touching them.  It does not share or inherit the source's answer
        tables: the clone scores every user afresh.  (The replicas of one
        :class:`~repro.serving.cluster.ServingCluster` share one model,
        tables included; see :meth:`_sibling`.)
        """
        if machine is None and n_shards is None:
            n_shards = self.n_shards
        return self._clone(self._model.derive(), machine, n_shards)

    def _sibling(self) -> "FactorStore":
        """Another replica of this very model on a fresh machine: the answer tables are shared, clock, stats (and cache) are its own."""
        return self._clone(self._model, None, self.n_shards)

    def _clone(self, model: _Model, machine: MultiGPUMachine | None, n_shards: int | None) -> "FactorStore":
        return type(self)(
            model,
            None,
            lam=self.lam,
            weighted=self.weighted,
            machine=machine,
            n_shards=n_shards,
            solver=self.solver,
            version=self.version,
            **self._clone_kwargs(),
        )

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
        folded_items: dict[int, np.ndarray] | None = None,
    ) -> None:
        """Replace the served model in place — the zero-downtime rollout hook.

        The store keeps its machine, clock and running stats (it is the
        same serving process) but swaps in private immutable copies of
        the new factors, rebuilds the Θ shards over the same device
        count, and installs the snapshot's fold-in bookkeeping:
        ``folded_items`` maps the last ``len(folded_items)`` users of the
        new X to the items they rated (a registry version's
        :attr:`~repro.serving.lifecycle.Snapshot.folded_items`), and every
        other row is a trained user — by default, every row.  The
        simulated clock is charged for shipping each device its new Θ
        shard, which is the load a real replica pays while drained.
        ``lam``/``weighted``/
        ``version``/``solver`` update the serving metadata when given.
        The store gets a model of its own; a cluster's rolling swap gates
        the snapshot once and installs one model on every replica.
        """
        self._swap_to(_Gated(x, theta, folded_items), lam=lam, weighted=weighted, version=version, solver=solver)

    def _swap_to(
        self, gated: _Gated, *, lam: float | None = None, weighted: bool | None = None, version: str | None = None, solver: str | None = None
    ) -> None:
        """:meth:`swap_snapshot` to an already gated snapshot: serve ``gated.model(n_shards)`` for this store's shard count."""
        model = gated.model(self.n_shards)
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
        self._install(model)
        self._spend(
            self.machine.run_transfers(
                [self.machine.h2d(i, self.partition.size_of(i) * self.f * FLOAT_BYTES, tag="swap-shard") for i in range(self.n_shards)],
                label="swap-h2d",
            )
        )

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
        start = self.n_items
        grown = self._model.grown(new_theta)
        if grown is not self._model:
            self._grow_to(grown)
        return start

    def _grow_to(self, model: _Model) -> None:
        """Serve ``model``, this store's model with item rows appended, and charge broadcasting the new rows."""
        n_new = model.n_items - self.n_items
        self._install(model)
        self._spend(
            self.machine.run_transfers([self.machine.h2d(i, n_new * self.f * FLOAT_BYTES, tag="grow-items") for i in range(self.n_shards)], label="grow-h2d")
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_users(self) -> int:
        """Number of user rows currently servable (including fold-ins)."""
        return self._model.n_users

    @property
    def n_items(self) -> int:
        """Number of items."""
        return self._model.n_items

    @property
    def f(self) -> int:
        """Latent-feature dimension."""
        return self._model.f

    @property
    def n_shards(self) -> int:
        """Number of Θ shards (= serving devices)."""
        return self._model.n_shards

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
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integer indices, got dtype {values.dtype}")
        return values.astype(np.int64, copy=False)

    def _validate_users(self, users: np.ndarray) -> np.ndarray:
        users = self._as_index_array(users, "users")
        # One reduction checks both ends: a negative id reads as a huge uint64.
        if users.size and users.view(np.uint64).max() >= self.n_users:
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

        Each user is scored once per epoch of its answer: the served
        model keeps a table of every row computed on it, one for
        ``exclude=None`` and one for the last exclude matrix, and later
        queries by that user, in this call or a later one, on this store
        or on any replica serving the same model, read the stored row
        (its first columns for a smaller ``k``).  So a user's answer is
        the one computed when the user was first scored in the epoch, bit
        for bit, whatever block, call or replica repeats it.  A write
        (:meth:`fold_in`, :meth:`swap_snapshot`, :meth:`grow_items`, the
        fold-in state a registry's ``build_store`` restores) ends the
        epoch of the rows whose inputs it changes and keeps the others: a
        row survives when Θ keeps its bits, item count and shard layout,
        the user's x row keeps its bits and, under a matrix, the user's
        mask is unchanged (trained on both sides, or folded in on both
        with the same items).  So a fold-in keeps every row, a swap to an
        equal Θ keeps the rows of users whose x it leaves alone, and item
        growth or a changed Θ keeps none.  The epoch of every row also
        ends when ``k`` exceeds every ``k`` asked of its table so far,
        when an exclude matrix is another object than the last one asked
        with, and in a fresh store (``build_store``, :meth:`replicate`).
        ``exclude`` is therefore read as a value: do not mutate a matrix
        in place between calls; pass a new one.  Every query is still
        charged to the simulated clock and counted in :attr:`stats`,
        whether a table answered it or not.
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
        """Set every item each user of ``block`` has already rated to ``-inf`` in the item-major ``(n_items, b)`` ``scores``.

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
        scores[exclude.indices[gather], np.repeat(rows, lens)] = -np.inf
        for r in np.flatnonzero(~trained):
            seen = self._folded_items.get(int(block[r]))
            if seen is not None:
                scores[seen, r] = -np.inf

    def _topk_block(self, block: np.ndarray, kk: int, exclude: CSRMatrix | None) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``kk`` ids/scores for one block of users, one row per query.

        Scores (:meth:`_score_block`) and selects (:meth:`_select_topk`)
        only the block's distinct users the model's table for ``exclude``
        (:meth:`_Model.table`) lacks, whether its rows were computed on
        this model or inherited from its predecessor, stores their rows,
        counts them in ``stats.rows_scored``, and reads every query's
        answer from the table.  The simulated per-device time of the
        sharded dataflow is charged to this store's machine clock for all
        ``block.size`` queries.
        """
        answers = self._model.table(exclude, kk)
        missing = block[~answers.known[block]]
        if missing.size:
            missing = _distinct(missing)[0]
            answers.ids[missing], answers.scores[missing] = self._select_topk(self._score_block(missing, exclude), answers.ids.shape[1])
            answers.known[missing] = True
            self.stats.rows_scored += missing.size
        self._account_topk(block.size, kk)
        return answers.ids[block, :kk], answers.scores[block, :kk]

    def _score_block(self, block: np.ndarray, exclude: CSRMatrix | None) -> np.ndarray:
        """The float32 ``(b, n_items)`` scores of one block of users, seen items at ``-inf``.

        The block is stored item-major, in one C-contiguous ``(n_items, b)``
        buffer: each Θ shard's GEMM (the per-device GEMM the clock charges)
        writes its contiguous rows ``[lo, hi)`` in place, :meth:`_mask_seen`
        writes into the same buffer, and the returned array is its
        transposed view, which :meth:`_select_topk` reads without a copy.
        The buffer is the thread's workspace (:func:`_score_buffer`): the
        block holds until the thread scores its next one.
        """
        model = self._model
        xb = model.x_score[block]
        scores = _score_buffer(model.n_items * block.size).reshape(model.n_items, block.size)
        for i, shard in enumerate(model.shards):
            lo, hi = model.partition.range_of(i)
            np.matmul(shard, xb.T, out=scores[lo:hi])
        if exclude is not None:
            self._mask_seen(scores, block, exclude)
        return scores.T

    @staticmethod
    def _select_topk(scores: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's top-``kk`` ids and scores: descending score, ties by ascending item id.

        ``scores`` is ``(b, n_items)`` and is read item-major, as the
        ``(n_items, b)`` array of its transpose (no copy for a block of
        :meth:`_score_block`).  Items are grouped by stride: item ``c``
        joins coarse group ``c mod gc`` and fine group ``c mod g``, where
        ``gc = min(4·kk, n_items)`` and each coarse group is split into
        ``isqrt(n_items // gc)`` fine ones (``g`` of them in all, a
        multiple of ``gc``).  So the fine maxima are one ``fmax``
        reduction over the item-major slabs of ``g·b`` contiguous floats,
        with the items of a partial last slab folded in, and the coarse
        maxima one reduction of the fine ones.  The kk-th largest coarse
        maximum ``t`` is a lower bound on the row's kk-th largest score
        (kk disjoint groups each hold an entry >= t), so the exact top-kk
        lies among the entries >= t, and only the fine groups whose
        maximum reaches ``t`` can hold one.  Their members are gathered,
        one per slab, and compared to ``t``; a partial last slab is no
        separate pass, its missing members read as NaN.  NaN scores are
        never answers: a group's maximum ignores them, and an all-NaN
        group's maximum is ``-inf``, not NaN (which would rank above every
        real maximum and raise ``t`` past valid scores).  So the selection
        is exact over the non-NaN entries, whatever the grouping, and a
        top-kk answer is the bitwise prefix of any wider one.
        The candidates are scanned in (slab, group, row) order, which is
        ascending item id within each row, and ordered by one stable sort
        on an int64 key of (row, descending score), so equal scores keep
        ascending ids.  Rows hold ``-inf`` past their last candidate.
        """
        b, n = scores.shape
        items = np.ascontiguousarray(scores.T)
        gc = min(4 * kk, n)
        g = gc * math.isqrt(n // gc)
        full = n // g * g
        group_max = np.fmax.reduce(items[:full].reshape(n // g, g, b), axis=0, initial=-np.inf)
        np.fmax(group_max[: n - full], items[full:], out=group_max[: n - full])
        coarse_max = np.fmax.reduce(group_max.reshape(g // gc, gc, b), axis=0)
        threshold = np.partition(coarse_max, gc - kk, axis=0)[gc - kk]
        # Candidate (group, row) pairs as group·b + row, and their members' flat offsets: one row per slab.
        cand = np.flatnonzero(group_max >= threshold)
        offsets = (np.arange(0, n, g) * b)[:, None] + cand
        members = items.ravel().take(offsets, mode="clip")
        # The last slab holds groups [0, (n - 1) % g + 1) only: the pairs of the other groups (a suffix of cand) are no items there.
        members[-1, np.searchsorted(cand, ((n - 1) % g + 1) * b) :] = np.nan
        hit = np.flatnonzero(members >= threshold[cand % b])
        cols, rows = np.divmod(offsets.ravel()[hit], b)
        vals = members.ravel()[hit]

        # Float32 bits mapped to an order-preserving int32; +0.0 first so -0.0 ties +0.0.
        bits = (vals + np.float32(0.0)).view(np.int32)
        asc = bits ^ ((bits >> 31) & 0x7FFFFFFF)
        order = np.argsort((rows << 32) - asc, kind="stable")
        counts = np.bincount(rows, minlength=b)
        rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        first = rank < kk
        keep = order[first]
        at = rows[keep], rank[first]
        ids = np.zeros((b, kk), dtype=np.int64)
        top = np.full((b, kk), -np.inf, dtype=np.float32)
        ids[at] = cols[keep]
        top[at] = vals[keep]
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
        self._charge(("topk", b, kk), self._topk_pass)
        self.stats.queries += b
        self.stats.batches += 1

    def _topk_pass(self, b: int, kk: int) -> _Charge:
        """The priced top-k pass of :meth:`_account_topk`."""
        machine, f = self.machine, self.f
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
        return _Charge.price(
            machine,
            [machine.h2d(i, b * f * FLOAT_BYTES, tag="serve-users") for i in range(self.n_shards)],
            profiles,
            [machine.d2h(i, 2 * b * kk * FLOAT_BYTES, tag="serve-candidates") for i in range(self.n_shards)],
        )

    def _account_predict(self, n: int) -> None:
        """Advance the simulated clock by one pass scoring ``n`` (user, item) pairs.

        On device 0: the index pairs go up, one gather-dot kernel reads
        both factor rows of every pair (``2 n f`` floats) and writes
        ``n`` scores, and the scores come back down.  Top-k counters
        (``queries``, ``batches``) are left alone.
        """
        self._charge(("predict", n), self._predict_pass)

    def _predict_pass(self, n: int) -> _Charge:
        """The priced pair-scoring pass of :meth:`_account_predict`."""
        machine = self.machine
        dot = KernelProfile(
            name="predict_dot",
            flops=2.0 * n * self.f,
            traffic={MemoryKind.GLOBAL: float((2 * n * self.f + n) * FLOAT_BYTES)},
            blocks=n,
        )
        return _Charge.price(
            machine,
            [machine.h2d(0, 2 * n * FLOAT_BYTES, tag="predict-pairs")],
            {0: dot},
            [machine.d2h(0, n * FLOAT_BYTES, tag="predict-scores")],
        )

    def _charge(self, shape: tuple, price) -> None:
        """Replay one pass's charge and credit its time to :attr:`stats`.

        ``shape`` is ``(pass name, *args)``.  A pass's charge depends only
        on its args, the Θ partition, ``f`` and the machine, so
        ``price(*args)`` builds it the first time the shape is seen and
        the record is kept until :meth:`_install` installs a new
        partition.  The stats are credited the seconds the replay returns
        and each device the seconds of its priced launch (see
        :class:`ServingStats`).
        """
        charge = self._charges.get(shape)
        if charge is None:
            charge = self._charges[shape] = price(*shape[1:])
        self._spend(charge.replay(self.machine))
        for i, _, seconds in charge.kernels:
            if seconds:
                self.stats.per_device_seconds[i] = self.stats.per_device_seconds.get(i, 0.0) + seconds

    def _spend(self, seconds: float) -> None:
        """Credit ``seconds`` of serving work: the one writer of ``stats.simulated_seconds``, and the per-call meter ``serve_window`` reads."""
        self.stats.simulated_seconds += seconds
        self._metered += seconds

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
        for exclusion purposes.  The store gets a model of its own.
        Recording the ratings for a later refresh, and solving a fold-in
        once for every replica that serves one model, is the serving
        cluster's job (:meth:`~repro.serving.cluster.ServingCluster.fold_in`).
        """
        return self._fold_to(*self._model.folded(items, ratings, self.lam, self.weighted))

    def _fold_to(self, model: _Model, nnz: int) -> int:
        """Serve ``model``, this store's model with one user folded in from ``nnz`` ratings, and charge the fold-in pass; returns the user's id."""
        user = self.n_users
        self._install(model)
        self._charge(("foldin", nnz), self._foldin_pass)
        self.stats.fold_ins += 1
        return user

    def _foldin_pass(self, nnz: int) -> _Charge:
        """The priced fold-in pass: the ratings up, one Hermitian assembly + 1-row solve on device 0, the factor down."""
        machine = self.machine
        herm = get_hermitian_profile(machine.spec, 1, nnz, self.n_items, self._profile_config, name="foldin_hermitian")
        solve = batch_solve_profile(1, self.f, name="foldin_solve")
        return _Charge.price(
            machine,
            [machine.h2d(0, 2 * nnz * FLOAT_BYTES, tag="foldin-ratings")],
            {0: herm.merged(solve, name="foldin")},
            [machine.d2h(0, self.f * FLOAT_BYTES, tag="foldin-factor")],
        )
