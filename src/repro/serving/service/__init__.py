"""Unified serving API: typed envelopes, config, and facade.

* :mod:`~repro.serving.service.envelopes` — typed data-plane requests
  (:class:`PredictRequest` / :class:`RecommendRequest` /
  :class:`RateRequest`) and the one auditable response shape,
  :class:`ServeResponse`;
* :class:`~repro.serving.service.config.ServingConfig` — the declarative
  deployment description :meth:`CuMF.serve` consumes;
* :class:`~repro.serving.service.facade.RecommenderService` — the facade
  splitting a data plane (predict / recommend / rate) from an admin
  plane (fold-in, refresh, snapshot, rollout, rollback, drain/restore)
  over one :class:`~repro.serving.cluster.ServingCluster` (a lone store
  is served as a one-replica cluster).
"""

from repro.serving.service.config import ServingConfig
from repro.serving.service.envelopes import (
    SERVICE_DEFAULT,
    STATUSES,
    PredictRequest,
    RateRequest,
    RecommendRequest,
    ServeResponse,
    ShedError,
)
from repro.serving.service.facade import RecommenderService

__all__ = [
    "SERVICE_DEFAULT",
    "STATUSES",
    "PredictRequest",
    "RateRequest",
    "RecommendRequest",
    "RecommenderService",
    "ServeResponse",
    "ServingConfig",
    "ShedError",
]
