"""Checkpoint-based fault tolerance (§4.4 "Fault tolerance").

cuMF asynchronously checkpoints X and Θ after every iteration into a
parallel file system; on machine failure the most recent factor matrices
restart ALS.  :class:`CheckpointManager` provides the same contract on the
local file system with atomic writes, retention of the latest ``keep``
checkpoints, and a restore path the trainer can resume from.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Checkpoint", "CheckpointManager"]

_CKPT_RE = re.compile(r"^cumf_iter(\d+)\.npz$")


@dataclass
class Checkpoint:
    """One restored checkpoint.

    ``extras`` holds any additional scalar/array metadata that was passed
    to :meth:`CheckpointManager.save` (e.g. the serving layer persists
    its fold-in hyper-parameters alongside the factors).
    """

    iteration: int
    x: np.ndarray
    theta: np.ndarray
    path: str
    extras: dict = field(default_factory=dict)


class CheckpointManager:
    """Writes, lists, prunes and restores factor-matrix checkpoints."""

    def __init__(self, directory: str | os.PathLike, keep: int = 2):
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.directory = os.fspath(directory)
        self.keep = keep
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------ #
    def _path(self, iteration: int) -> str:
        return os.path.join(self.directory, f"cumf_iter{iteration}.npz")

    def save(self, iteration: int, x: np.ndarray, theta: np.ndarray, **extras) -> str:
        """Atomically persist the factors of one iteration; prunes old files.

        ``extras`` (array-convertible values) are stored in the same npz
        and surface again on :attr:`Checkpoint.extras`.  An extra named
        ``protected`` (any value) marks the file as exempt from retention
        pruning: the serving tier and the snapshot registry park their
        snapshots in (possibly shared) checkpoint directories and a
        trainer's ``keep=N`` rotation must never evict them.

        Stored uncompressed (zlib saves ~5% on float factors at ~30× the
        write time); :meth:`load` reads compressed files as well.
        """
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        reserved = {"iteration", "x", "theta"} & extras.keys()
        if reserved:
            raise ValueError(f"reserved checkpoint keys: {sorted(reserved)}")
        path = self._path(iteration)
        tmp = path + ".tmp"
        np.savez(tmp, iteration=np.int64(iteration), x=np.asarray(x), theta=np.asarray(theta), **extras)
        tmp_real = tmp if os.path.exists(tmp) else tmp + ".npz"
        os.replace(tmp_real, path)
        self._prune()
        return path

    def _prune(self) -> None:
        # Retention applies to the trainer's own rotation only: protected
        # files (store snapshots, registry versions) neither count against
        # ``keep`` nor get deleted.
        prunable = [it for it in sorted(self.list_iterations()) if not self._is_protected(it)]
        for iteration in prunable[: max(0, len(prunable) - self.keep)]:
            try:
                os.remove(self._path(iteration))
            except FileNotFoundError:  # pragma: no cover - benign race
                pass

    def _is_protected(self, iteration: int) -> bool:
        """Whether a checkpoint opted out of retention pruning.

        Recognised by the ``protected`` extra, plus the serving layer's
        ``n_trained_users`` fold-in marker so store snapshots written
        before the flag existed stay safe too.  Reading ``.files`` only
        touches the zip directory, so the scan is cheap.
        """
        try:
            with np.load(self._path(iteration)) as blob:
                return bool({"protected", "n_trained_users"} & set(blob.files))
        except (OSError, ValueError):  # pragma: no cover - benign race
            return False

    # ------------------------------------------------------------------ #
    def list_iterations(self) -> list[int]:
        """Iterations that currently have a checkpoint on disk."""
        out = []
        for entry in os.listdir(self.directory):
            match = _CKPT_RE.match(entry)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def latest(self) -> Checkpoint | None:
        """Restore the most recent checkpoint, or ``None`` if there is none."""
        iterations = self.list_iterations()
        if not iterations:
            return None
        return self.load(iterations[-1])

    def load(self, iteration: int) -> Checkpoint:
        """Restore a specific iteration's checkpoint."""
        path = self._path(iteration)
        with np.load(path) as blob:
            extras = {k: blob[k] for k in blob.files if k not in ("iteration", "x", "theta")}
            return Checkpoint(iteration=int(blob["iteration"]), x=blob["x"], theta=blob["theta"], path=path, extras=extras)
