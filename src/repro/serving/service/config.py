"""Declarative serving topology: one dataclass instead of three export methods.

:class:`ServingConfig` describes *what to stand up* — how many replicas,
which routing policy, how many Θ shards per replica, whether serving-time
ratings are logged, and where versioned snapshots live — and
:meth:`~repro.core.trainer.CuMF.serve` turns it into a running
:class:`~repro.serving.service.facade.RecommenderService`.  Every
scenario that used to need its own ``export_*`` method (single store,
replicated cluster, registry-backed rollout) is now a field choice, and
future ones (heterogeneous replicas, scheduled refresh) are meant to be
new fields, not new constructors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.validation import require
from repro.serving.cache.config import CacheConfig
from repro.serving.lifecycle.log import InteractionLog
from repro.serving.routing import Router, make_router
from repro.serving.tenancy import TenantPolicy, TenantPolicyTable
from repro.sparse.csr import CSRMatrix

__all__ = ["ServingConfig"]


@dataclass
class ServingConfig:
    """Everything :meth:`CuMF.serve` needs to build a serving deployment.

    Parameters
    ----------
    replicas:
        Number of replicas: :meth:`CuMF.serve` builds a
        :class:`~repro.serving.cluster.ServingCluster` of this many
        independent :class:`~repro.serving.store.FactorStore` replicas
        behind ``router`` (``1`` is a one-replica cluster).
    router:
        Routing policy for a replicated deployment — a registered policy
        name or alias (see :func:`~repro.serving.routing.router_names`),
        a ``{"name": ..., **kwargs}`` dict, or a
        :class:`~repro.serving.routing.Router` instance.  Custom
        policies added with :func:`~repro.serving.routing.register_router`
        work here by name.  Ignored when ``replicas == 1``.
    n_shards:
        Θ shards (simulated devices) per serving unit; ``None`` keeps
        the store default of one.
    log:
        ``True`` (default) attaches a fresh
        :class:`~repro.serving.lifecycle.InteractionLog` so fold-ins and
        rated feedback are recorded for the next refresh; ``False``
        serves without one; an existing log instance is attached as-is.
    registry_dir:
        When set, the fitted factors are published as the next version
        of a :class:`~repro.serving.lifecycle.SnapshotRegistry` there,
        the serving units are stamped with that version label, and the
        service's refresh / rollout / rollback plane is enabled.
    registry_keep:
        Version retention for the registry (``None`` keeps everything).
    tag:
        Tag for the published version (defaults to the solver name).
    ratings:
        The ratings matrix the model was trained on.  Used as the
        default seen-item exclusion for recommendations and as the base
        matrix of the first :meth:`RecommenderService.refresh`.
    tenants:
        Optional tenant policies — anything
        :meth:`~repro.serving.tenancy.TenantPolicyTable.coerce` accepts
        (a sequence of :class:`~repro.serving.tenancy.TenantPolicy`, a
        single policy, or a prebuilt table).  When set, the service
        enforces per-tenant rate caps on its data plane and replays
        tenant-labelled traces through the weighted-fair discipline.
        ``None`` (default) serves single-tenant with zero overhead.
    cache:
        Optional heat-aware factor cache — a
        :class:`~repro.serving.cache.config.CacheConfig` or a dict of
        its fields.  When set, every serving unit is a
        :class:`~repro.serving.cache.tiered.TieredFactorStore`: item
        factors live in a simulated GPU-hot / host-warm / disk-cold
        hierarchy, query heat drives promotion waves, and cache counters
        join :meth:`RecommenderService.stats`.  ``None`` (default)
        serves from plain stores with zero overhead.
    """

    replicas: int = 1
    router: Router | str | dict = "least-loaded"
    n_shards: int | None = None
    log: InteractionLog | bool = True
    registry_dir: str | os.PathLike | None = None
    registry_keep: int | None = None
    tag: str = ""
    ratings: CSRMatrix | None = field(default=None, repr=False)
    tenants: "TenantPolicyTable | TenantPolicy | tuple | list | None" = None
    cache: "CacheConfig | dict | None" = None

    def __post_init__(self) -> None:
        require(self.replicas >= 1, "replicas must be at least 1")
        require(self.n_shards is None or self.n_shards >= 1, "n_shards must be at least 1")
        require(self.registry_keep is None or self.registry_keep >= 1, "registry_keep must be at least 1")
        require(self.registry_keep is None or self.registry_dir is not None, "registry_keep needs a registry_dir")
        # Fail on an unknown policy name at *config* time, not at serve
        # time; a Router instance passes through untouched.
        if not isinstance(self.router, Router):  # reprolint: ignore[REP006] — structural duck-check, not an implementation fork
            make_router(self.router)
        # Same principle for tenant policies: a malformed table fails here.
        TenantPolicyTable.coerce(self.tenants)
        # And for the cache: a malformed tier configuration fails at
        # config time; the coerced form is what serve() consumes.
        self.cache = CacheConfig.coerce(self.cache)

    def tenant_table(self) -> TenantPolicyTable | None:
        """The coerced tenant policy table (``None`` when unconfigured)."""
        return TenantPolicyTable.coerce(self.tenants)

    def make_log(self) -> InteractionLog | None:
        """The interaction log this config asks for (``None`` when off)."""
        if self.log is True:
            return InteractionLog()
        if self.log is False or self.log is None:
            return None
        return self.log
