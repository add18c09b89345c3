"""Typed request/response envelopes for the service data plane.

Every data-plane call on a :class:`~repro.serving.service.facade.RecommenderService`
— predict, recommend, rate — takes one of the request dataclasses below
(or plain arguments that are coerced into one) and returns a single
auditable shape, :class:`ServeResponse`: status, payload, simulated
latency, the model version that answered and the unit that served it.
Bare arrays/lists stop leaking out of the serving tier; a caller that
wants the raw payload either reads ``response.payload`` after checking
``response.ok`` or calls :meth:`ServeResponse.raise_for_status` to turn
an error envelope back into the exception the backend raised.

Backend errors are *captured*, not propagated: a bad user id or a
``k < 1`` still fails with the exact same message on every backend (the
protocol suite pins that), but the service wraps it as
``status="error"`` so one request cannot take down a serving loop.

Multi-tenant serving widens the vocabulary without breaking old
callers: requests carry a ``tenant`` id (``"default"`` when unset or
empty, so an unnamed tenant is counted, labelled and echoed under one
name), and
a response's ``status`` is one of :data:`STATUSES` — ``"ok"``,
``"error"``, ``"shed"`` (rejected by the tenant's rate cap or deadline,
carried as a typed envelope rather than an unbounded queue), or
``"degraded"`` (served with the policy's reduced ``k``).  ``shed`` raises
:class:`ShedError` from :meth:`~ServeResponse.raise_for_status`;
``degraded`` counts as served.  A call's outcome is one of the replay's
per-request codes (``STATUS_*`` in :mod:`repro.serving.tenancy`), and
:data:`ENVELOPE_STATUS` names the envelope status of each code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.serving.tenancy import DEFAULT_TENANT, STATUS_DEGRADED, STATUS_ERROR, STATUS_OK, STATUS_SHED_CAP, STATUS_SHED_DEADLINE, STATUS_SHED_QUEUE

__all__ = [
    "ENVELOPE_STATUS",
    "SERVICE_DEFAULT",
    "STATUSES",
    "ShedError",
    "PredictRequest",
    "RecommendRequest",
    "RateRequest",
    "ServeResponse",
]

#: Sentinel for "use the service's configured default" (e.g. the exclude
#: matrix the service was built with) as opposed to an explicit ``None``
#: ("no exclusion for this request").
SERVICE_DEFAULT: Any = "service-default"

#: The envelope status of each request outcome code.  A replay's
#: ``STATUS_DROPPED`` request has no envelope, so it has no entry.
ENVELOPE_STATUS = {
    STATUS_OK: "ok",
    STATUS_ERROR: "error",
    STATUS_SHED_CAP: "shed",
    STATUS_SHED_DEADLINE: "shed",
    STATUS_SHED_QUEUE: "shed",
    STATUS_DEGRADED: "degraded",
}

#: The full response-status vocabulary, in :data:`ENVELOPE_STATUS` order.
STATUSES = tuple(dict.fromkeys(ENVELOPE_STATUS.values()))


class ShedError(RuntimeError):
    """A request was rejected by tenant admission (rate cap or SLO deadline).

    Distinct from a backend error: the model never saw the request.  The
    right client reaction is back-off/retry, not a bug report.
    """


class _Tenanted:
    """The request envelopes' tenant rule: an unnamed tenant (``""``) is :data:`~repro.serving.tenancy.DEFAULT_TENANT`."""

    def __post_init__(self) -> None:
        if not self.tenant:
            object.__setattr__(self, "tenant", DEFAULT_TENANT)


@dataclass(frozen=True)
class PredictRequest(_Tenanted):
    """Score aligned (user, item) pairs."""

    users: np.ndarray
    items: np.ndarray
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class RecommendRequest(_Tenanted):
    """Top-``k`` recommendations for one user or a batch of users.

    ``users`` may be a scalar id or a 1-D array; the response payload is
    a :class:`~repro.serving.store.TopK`, read as one
    ``[(item, score), ...]`` list per requested user.
    ``exclude`` defaults to the service's configured seen-item matrix;
    pass ``None`` explicitly to disable exclusion for this request.
    """

    users: Any
    k: int = 10
    user_block: int = 512
    exclude: Any = SERVICE_DEFAULT
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class RateRequest(_Tenanted):
    """Feedback from a *known* user: ratings to park in the interaction log.

    Item ids may exceed the served item count (that is how brand-new
    items enter the system); the user id must be servable — cold-start
    users go through the admin plane's ``fold_in`` instead.
    """

    user: int
    items: np.ndarray
    ratings: np.ndarray
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class ServeResponse:
    """The one shape every data-plane call returns.

    ``kind`` names the request type (``"predict"`` / ``"recommend"`` /
    ``"rate"``), ``payload`` carries its result (predictions array,
    a :class:`~repro.serving.store.TopK` of per-user recommendation
    rows, or the number of events logged) and
    is ``None`` on error or shed.  ``latency_s`` is the simulated
    serving time the request consumed, ``version`` the model version
    that answered, ``replica`` the serving unit that took the call
    (``-1`` when no unit was involved, e.g. a logged rating or a
    rejected request), and ``tenant`` echoes the requesting tenant so
    per-tenant accounting works off responses alone.
    """

    kind: str
    status: str
    payload: Any = None
    latency_s: float = 0.0
    version: str = ""
    replica: int = -1
    error: str = ""
    error_type: str = field(default="", repr=False)
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown response status {self.status!r}; choose from {sorted(STATUSES)}")

    @property
    def ok(self) -> bool:
        """Whether the request was served at full quality (``status == "ok"``)."""
        return self.status == "ok"

    @property
    def served(self) -> bool:
        """Whether a payload was produced (``"ok"`` or ``"degraded"``)."""
        return self.status in ("ok", "degraded")

    def raise_for_status(self) -> "ServeResponse":
        """Re-raise a non-served envelope as its originating exception.

        Returns ``self`` on ``"ok"`` *and* ``"degraded"`` (a degraded
        answer is still an answer), so data-plane calls chain:
        ``service.recommend(...).raise_for_status().payload``.  A
        ``"shed"`` envelope raises :class:`ShedError`; an ``"error"``
        envelope raises the exception type the backend originally threw.
        """
        if self.served:
            return self
        if self.status == "shed":
            raise ShedError(self.error or f"request shed for tenant {self.tenant or DEFAULT_TENANT!r}")
        exc_type = _ERROR_TYPES.get(self.error_type, RuntimeError)
        raise exc_type(self.error)


_ERROR_TYPES: dict[str, type[Exception]] = {
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
    "ShedError": ShedError,
}
