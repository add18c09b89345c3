"""High-level cuMF facade: fit / predict / recommend / serve / resume.

:class:`CuMF` is the API a downstream user would adopt.  ``backend``
accepts *any* name in the solver registry — the three cuMF ALS levels
(``"base"``, ``"mo"``, ``"su"``) and every baseline (``"ccd++"``,
``"libmf-sgd"``, ``"nomad"``, ``"pals"``, ``"spark-als"``) — and
:meth:`fit` runs the solver through a
:class:`~repro.core.solver.session.TrainingSession`, so checkpointing is
a :class:`~repro.core.solver.session.CheckpointCallback` and callers can
pass their own :class:`~repro.core.solver.session.FitCallback` pipeline
(early stop, metric logging).  Prediction and top-k recommendation
delegate to a :class:`~repro.serving.store.FactorStore` snapshot of the
learned factors, so the single-user and the batched serving paths share
one code path — and since every solver returns the same
:class:`~repro.core.config.FitResult`, a CCD++- or SGD-trained model
serves through :meth:`CuMF.serve` exactly like an ALS-trained one.

Serving proper goes through one front door: :meth:`CuMF.serve` takes a
declarative :class:`~repro.serving.service.ServingConfig` (replicas,
router, shards, interaction log, registry directory) and returns a
:class:`~repro.serving.service.RecommenderService` — typed data-plane
envelopes over any backend, plus the admin plane (fold-in, refresh,
snapshot, rollout, rollback).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.comm.reduction import ReductionScheme
from repro.core.checkpoint import CheckpointManager
from repro.core.config import ALSConfig, FitResult
from repro.core.metrics import rmse
from repro.core.solver import CheckpointCallback, TrainingSession, get_solver_spec, make_solver
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.specs import TITAN_X, DeviceSpec
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.serving.store import TopK

__all__ = ["CuMF"]


class CuMF:
    """Matrix factorization with any registered solver.

    Parameters
    ----------
    config:
        Hyper-parameters and optimisation switches.  An
        :class:`~repro.core.config.ALSConfig` works for every backend:
        the registry maps its common fields onto the baseline families
        (``iterations`` becomes ``epochs`` for the SGD solvers).
    backend:
        Any name in the solver registry — ``"base"`` (plain NumPy
        Algorithm 1), ``"mo"`` (single simulated GPU, Algorithm 2),
        ``"su"`` (multi-GPU, Algorithm 3), or a baseline (``"ccd++"``,
        ``"libmf-sgd"``, ``"nomad"``, ``"pals"``, ``"spark-als"``).
    n_gpus:
        Number of GPUs for the ``"su"`` backend (ignored otherwise).
    spec:
        Device spec for the simulated GPUs.
    machine:
        Pre-built machine (overrides ``n_gpus``/``spec``); lets callers
        share one simulated machine between runs or customise topology.
    reduction:
        Reduction scheme for ``"su"`` (default: two-phase topology-aware).
    scheduler:
        Task-graph scheduler name (or instance) for the GPU solvers —
        any name in :mod:`repro.core.schedule`'s registry (``"serial"``,
        ``"eager"``, ``"round-robin"``).  ``None`` keeps each solver's
        default (serial, the eager-parity replay).
    checkpoint_dir:
        When set, X/Θ are checkpointed during training (via a
        :class:`~repro.core.solver.session.CheckpointCallback`) and
        :meth:`fit` resumes from the latest checkpoint if one exists —
        for *any* backend, since warm-start is part of the solver
        protocol.
    checkpoint_every:
        Save cadence in iterations (default 1: every iteration).  The
        final iteration is always saved, so ``every=N`` trades recovery
        granularity for write volume without losing the end of a run.
    """

    def __init__(
        self,
        config: ALSConfig | None = None,
        backend: str = "mo",
        n_gpus: int = 1,
        spec: DeviceSpec = TITAN_X,
        machine: MultiGPUMachine | None = None,
        reduction: ReductionScheme | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 1,
        scheduler=None,
    ):
        self.backend = get_solver_spec(backend).name  # ValueError on unknown names
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.config = config or ALSConfig()
        self.n_gpus = n_gpus
        self.spec = spec
        self.machine = machine
        self.reduction = reduction
        self.scheduler = scheduler
        self.checkpoints = CheckpointManager(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_every = checkpoint_every
        self.result: FitResult | None = None
        self._store = None

    # ------------------------------------------------------------------ #
    def _build_solver(self):
        kwargs = dict(
            config=self.config,
            machine=self.machine,
            n_gpus=self.n_gpus,
            spec=self.spec,
            reduction=self.reduction,
        )
        # Only the GPU solver factories know the scheduler keyword; the
        # baselines' loose **hyper would reject it, so pass it when set.
        if self.scheduler is not None:
            kwargs["scheduler"] = self.scheduler
        return make_solver(self.backend, **kwargs)

    def fit(
        self,
        train: CSRMatrix,
        test: CSRMatrix | None = None,
        resume: bool = False,
        callbacks=(),
    ) -> FitResult:
        """Train on ``train`` and (optionally) track test RMSE per iteration.

        ``callbacks`` extend the session's :class:`FitCallback` pipeline
        (checkpointing, when configured, is appended automatically —
        unless the caller already supplied a
        :class:`CheckpointCallback` of their own, which then takes
        over).  With ``resume=True`` and a checkpoint on disk, training
        warm-starts from the saved factors and the history *continues*
        the saved iteration numbering instead of restarting at 1.
        """
        solver = self._build_solver()
        x0 = theta0 = None
        start_iteration = 0
        if resume and self.checkpoints is not None:
            restored = self.checkpoints.latest()
            if restored is not None:
                x0, theta0 = restored.x, restored.theta
                start_iteration = restored.iteration
        pipeline = list(callbacks)
        if self.checkpoints is not None and not any(isinstance(cb, CheckpointCallback) for cb in pipeline):
            pipeline.append(CheckpointCallback(self.checkpoints, every=self.checkpoint_every))
        session = TrainingSession(solver, callbacks=pipeline)
        with obs.get_tracer().span(f"fit:{self.backend}", category="fit", process="host", track="cumf"):
            result = session.run(train, test, x0=x0, theta0=theta0, start_iteration=start_iteration)
        if obs.enabled():
            registry = obs.get_registry()
            registry.counter("train.fits", solver=self.backend).inc()
            if result.history:
                registry.gauge("train.final_rmse", solver=self.backend).set(result.history[-1].train_rmse)
        self.result = result
        self._store = None  # invalidate the serving snapshot of a previous fit
        return result

    # ------------------------------------------------------------------ #
    def _require_fit(self) -> FitResult:
        if self.result is None:
            raise RuntimeError("call fit() before predicting or recommending")
        return self.result

    def serve(self, config=None, **overrides):
        """Stand up a :class:`~repro.serving.service.RecommenderService`.

        ``config`` is a declarative
        :class:`~repro.serving.service.ServingConfig`; keyword
        ``overrides`` patch individual fields (or build the whole config
        when no ``config`` is given), so the five-line path is::

            model.fit(train)
            service = model.serve(ServingConfig(replicas=3, n_shards=2,
                                                registry_dir=path, ratings=train))
            response = service.recommend(user, k=10)

        With a ``registry_dir`` the fitted factors are published as the
        next registry version and the serving units are stamped with its
        label, enabling the service's refresh / rollout / rollback
        plane.  ``service.backend`` is a
        :class:`~repro.serving.cluster.ServingCluster` of
        ``config.replicas`` replicas behind the configured router (one
        replica is simply a one-replica cluster) and
        ``service.registry`` the registry.
        """
        from dataclasses import replace

        from repro.serving.cluster import ServingCluster
        from repro.serving.lifecycle import SnapshotRegistry
        from repro.serving.service import RecommenderService, ServingConfig
        from repro.serving.store import FactorStore

        if config is None:
            config = ServingConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        result = self._require_fit()
        registry = None
        version_label = ""
        if config.registry_dir is not None:
            registry = SnapshotRegistry(config.registry_dir, keep=config.registry_keep)
            version = registry.publish_result(result, tag=config.tag)
            version_label = f"v{version}"
        log = config.make_log()
        store_kwargs = dict(n_shards=config.n_shards, version=version_label)
        store_cls = FactorStore
        if config.cache is not None:
            from repro.serving.cache import TieredFactorStore

            store_cls = TieredFactorStore
            store_kwargs["cache"] = config.cache
        backend = ServingCluster.from_result(result, config.replicas, router=config.router, store_cls=store_cls, log=log, **store_kwargs)
        return RecommenderService(
            backend,
            registry=registry,
            log=log,
            ratings=config.ratings,
            policies=config.tenant_table(),
        )

    def refresh(self, train: CSRMatrix, log, callbacks=()):
        """Fold serving-time ratings back into the model incrementally.

        ``train`` is the ratings matrix the current factors were fitted
        on and ``log`` an :class:`~repro.serving.lifecycle.InteractionLog`
        of what arrived through serving since.  Only the affected user
        rows are re-solved (against the frozen Θ, extended with θ rows
        folded in for brand-new items), using the same normal-equations
        kernels as training, so refreshed rows equal a full update pass
        over the merged ratings.  The refresh runs as a one-iteration
        :class:`~repro.core.solver.session.TrainingSession`, so
        ``callbacks`` receive the usual ``on_fit_start`` /
        ``on_iteration_end`` / ``on_fit_end`` hooks and the recorded
        history row continues the fit's iteration numbering.  The
        trainer's result is replaced with the refreshed factors (its
        serving snapshot is invalidated and a checkpoint is written when
        checkpointing is on) and the
        :class:`~repro.serving.lifecycle.RefreshResult` is returned —
        its ``ratings`` field is the merged matrix to pass to the *next*
        refresh, and its factors are what
        :meth:`~repro.serving.lifecycle.SnapshotRegistry.publish_result`
        publishes as the next version.
        """
        from repro.serving.lifecycle import run_refresh_session

        result = self._require_fit()
        start = result.history[-1].iteration if result.history else 0
        refreshed, fit = run_refresh_session(
            result.x,
            result.theta,
            train,
            log,
            self.config.lam,
            callbacks=callbacks,
            start_iteration=start,
        )
        solver = result.solver if result.solver.endswith("+refresh") else result.solver + "+refresh"
        self.result = FitResult(
            x=refreshed.x,
            theta=refreshed.theta,
            history=list(result.history) + list(fit.history),
            solver=solver,
            config=result.config,
        )
        self._store = None  # the served snapshot is stale now
        if self.checkpoints is not None:
            self.checkpoints.save_next(refreshed.x, refreshed.theta)
        return refreshed

    def _serving_store(self):
        """The cached store backing predict/recommend (built on first use)."""
        if self._store is None:
            from repro.serving.store import FactorStore

            self._store = FactorStore.from_result(self._require_fit())
        return self._store

    def predict(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Predicted ratings for aligned arrays of user and item indices."""
        self._require_fit()
        return self._serving_store().predict(users, items)

    def score(self, ratings: CSRMatrix) -> float:
        """RMSE of the fitted model against a rating matrix."""
        res = self._require_fit()
        return rmse(ratings, res.x, res.theta)

    def recommend(self, user: int, k: int = 10, exclude: CSRMatrix | None = None) -> list[tuple[int, float]]:
        """Top-``k`` items for ``user`` by predicted rating.

        ``exclude`` (typically the training matrix) removes items the user
        has already rated.  Raises :class:`ValueError` when ``user`` is
        outside the trained range or ``k`` is not positive.
        """
        self._require_fit()
        return self._serving_store().recommend(user, k=k, exclude=exclude)

    def recommend_batch(
        self,
        users: np.ndarray,
        k: int = 10,
        exclude: CSRMatrix | None = None,
        user_block: int = 512,
    ) -> TopK:
        """Batched top-``k``: one recommendation row per user in ``users`` (a :class:`~repro.serving.store.TopK`).

        ``user_block`` bounds the ``block × n_items`` score buffer, exactly
        as on :meth:`FactorStore.recommend_batch`.
        """
        self._require_fit()
        return self._serving_store().recommend_batch(users, k=k, exclude=exclude, user_block=user_block)
