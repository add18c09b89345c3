"""Versioned factor snapshots: the handoff between training and rollout.

A rollout needs a durable, addressable notion of "model v2";
:class:`SnapshotRegistry` provides it on top of the trainer's
:class:`~repro.core.checkpoint.CheckpointManager` file format.  A
version is the one on-disk form of a served model.  Every published
version is one checkpoint file whose extras carry the fold-in
hyper-parameters, a registry marker and, when the model has folded-in
users, its fold-in state (the trained-user count and each folded user's
items, CSR-encoded), written with the ``protected`` flag so a trainer
rotating its own checkpoints in the same directory can never evict a
published version.  Retention of old versions is the registry's own
call (``keep``), independent of the trainer's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.checkpoint import CheckpointManager
from repro.core.validation import require
from repro.serving.store import FactorStore, _fold_state

__all__ = ["Snapshot", "SnapshotRegistry"]

_MARKER = "registry_version"


@dataclass(frozen=True)
class Snapshot:
    """One published model version, ready to build a store from.

    Users ``[0, n_trained_users)`` are trained users; ``folded_items``
    maps each user above them (a fold-in) to the items it rated.
    """

    version: int
    x: np.ndarray
    theta: np.ndarray
    lam: float
    weighted: bool
    tag: str
    path: str
    n_trained_users: int
    folded_items: dict[int, np.ndarray]

    @property
    def label(self) -> str:
        """The version string stores serve under (``"v<version>"``)."""
        return f"v{self.version}"


class SnapshotRegistry:
    """Publishes, lists, loads and prunes versioned factor snapshots.

    Parameters
    ----------
    directory:
        Where versions live (one ``cumf_iter<version>.npz`` each).  The
        directory may be shared with a trainer's checkpoints; neither
        side's retention touches the other's files.
    keep:
        How many versions to retain (oldest pruned first); ``None``
        keeps everything.
    """

    def __init__(self, directory: str | os.PathLike, keep: int | None = None):
        require(keep is None or keep >= 1, "must keep at least one version")
        self.manager = CheckpointManager(directory, keep=1)
        self.keep = keep

    @property
    def directory(self) -> str:
        """Filesystem location of the registry."""
        return self.manager.directory

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SnapshotRegistry({self.directory!r}, versions={self.versions()})"

    # ------------------------------------------------------------------ #
    # listing
    # ------------------------------------------------------------------ #
    def _is_version(self, iteration: int) -> bool:
        try:
            with np.load(self.manager._path(iteration)) as blob:
                return _MARKER in blob.files
        except (OSError, ValueError):  # pragma: no cover - benign race
            return False

    def versions(self) -> list[int]:
        """Published versions, ascending (trainer checkpoints excluded)."""
        return [it for it in self.manager.list_iterations() if self._is_version(it)]

    def latest_version(self) -> int | None:
        """Newest published version, or ``None`` for an empty registry."""
        published = self.versions()
        return published[-1] if published else None

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def publish(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        *,
        lam: float = 0.05,
        weighted: bool = True,
        tag: str = "",
        folded_items: dict[int, np.ndarray] | None = None,
    ) -> int:
        """Persist a new version; returns its number.

        ``folded_items`` is the model's fold-in state: it maps the last
        ``len(folded_items)`` users of ``x`` to the items they rated.
        Without it every row is a trained user.  Version numbers strictly
        increase and never collide with trainer iterations already
        present in a shared directory (the next number is past *every*
        existing file).
        """
        x = np.asarray(x, dtype=np.float64)
        folded_items = _fold_state(x.shape[0], folded_items or {})
        extras = {}
        if folded_items:
            segments = [folded_items[u] for u in sorted(folded_items)]
            extras = {
                "n_trained_users": np.int64(x.shape[0] - len(segments)),
                "foldin_indptr": np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum([seg.size for seg in segments], dtype=np.int64)]),
                "foldin_items": np.concatenate(segments),
            }
        # A protected save rotates nothing; version retention is applied
        # below, by the registry itself.
        version = self.manager.save_next(
            x,
            np.asarray(theta, dtype=np.float64),
            lam=np.float64(lam),
            weighted=np.bool_(weighted),
            tag=np.str_(tag),
            registry_version=np.bool_(True),
            protected=np.bool_(True),
            **extras,
        )
        self._prune_versions()
        return version

    def publish_result(self, result, tag: str = "") -> int:
        """Publish a finished :class:`~repro.core.config.FitResult`."""
        lam = result.config.lam if result.config is not None else 0.05
        return self.publish(result.x, result.theta, lam=lam, tag=tag or result.solver)

    def publish_store(self, store: FactorStore, tag: str = "") -> int:
        """Publish a live store's factors and fold-in state: its folded-in users stay fold-ins."""
        return self.publish(store.x, store.theta, lam=store.lam, weighted=store.weighted, tag=tag, folded_items=store._folded_items)

    def rollback(self, version: int) -> int:
        """Re-publish an older version as the new head; returns its number.

        The roll-forward-to-the-past pattern: version numbers stay
        strictly monotonic (serving history remains auditable and a
        later roll*back of the rollback* is just another rollback), so
        reverting v1 → v0 publishes a v2 carrying v0's exact factors,
        fold-in hyper-parameters and fold-in state, tagged with its
        provenance.  Roll the new head out with
        :meth:`~repro.serving.service.facade.RecommenderService.rollout`
        (or :meth:`~repro.serving.service.facade.RecommenderService.rollback`,
        which does both).
        """
        published = self.versions()
        require(version in published, f"no version {version} in {self.directory!r}; published: {published}")
        require(version != published[-1], f"version {version} is already the latest; nothing to roll back")
        snap = self.load(version)
        return self.publish(
            snap.x,
            snap.theta,
            lam=snap.lam,
            weighted=snap.weighted,
            tag=f"rollback-of-{snap.label}",
            folded_items=snap.folded_items,
        )

    def _prune_versions(self) -> None:
        if self.keep is None:
            return
        published = self.versions()
        for version in published[: max(0, len(published) - self.keep)]:
            try:
                os.remove(self.manager._path(version))
            except FileNotFoundError:  # pragma: no cover - benign race
                pass

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load(self, version: int | None = None) -> Snapshot:
        """Restore one version (default: the latest)."""
        if version is None:
            version = self.latest_version()
            require(version is not None, f"no versions published in {self.directory!r}")
        restored = self.manager.load(version)
        extras = restored.extras
        require(_MARKER in extras, f"iteration {version} in {self.directory!r} is not a registry version")
        folded = {}
        if "n_trained_users" in extras:
            n_trained, indptr, items = int(extras["n_trained_users"]), extras["foldin_indptr"], extras["foldin_items"]
            folded = {n_trained + j: items[indptr[j] : indptr[j + 1]] for j in range(indptr.size - 1)}
        return Snapshot(
            version=restored.iteration,
            x=restored.x,
            theta=restored.theta,
            lam=float(extras["lam"]),
            weighted=bool(extras["weighted"]),
            tag=str(extras["tag"]),
            path=restored.path,
            n_trained_users=restored.x.shape[0] - len(folded),
            folded_items=folded,
        )

    def build_store(self, version: int | None = None, store_cls: type[FactorStore] = FactorStore, **store_kwargs) -> FactorStore:
        """Build a servable store of ``version`` (default: the latest).

        ``store_cls`` selects the class, e.g. the tiered cache front
        (:class:`~repro.serving.cache.tiered.TieredFactorStore`), and
        ``store_kwargs`` configure it (``n_shards``, ``cache``, ...).  The
        store serves the version's fold-in state, so its folded-in users
        keep their ids and seen items, and it is stamped with the version
        label, so per-version query counts show up in traffic reports
        during a rollout.
        """
        snap = self.load(version)
        store = store_cls(snap.x, snap.theta, lam=snap.lam, weighted=snap.weighted, version=snap.label, **store_kwargs)
        store._restore_fold_state(snap.folded_items)
        return store
