"""Routing policies as a registry: names in, :class:`Router` out.

PR 2 hard-coded three routing policies inside ``cluster.py``; this
module gives routing the same declarative surface the solver registry
gave training (:mod:`repro.core.solver.registry`):

* :class:`Router` is now a *runtime-checkable protocol* — anything with
  a ``name``, ``select(loads) -> index`` and ``reset()`` routes a
  cluster, no inheritance required;
* :func:`register_router` adds a policy under a canonical name (plus
  aliases) and it immediately works everywhere a name is accepted —
  ``ServingCluster(router=...)``, ``ServingConfig.router``,
  ``CuMF.serve`` — without touching ``cluster.py``;
* :func:`make_router` builds from a name, a ``{"name": ...}`` dict with
  keyword overrides (``make_router("power-of-two", seed=3)``), a
  :class:`RouterSpec`, or passes an instance through; unknown names
  raise the same ``unknown <kind> ...; choose from [...]`` message the
  solver registry raises (one shared helper in
  :mod:`repro.core.validation`).

Registered out of the box: ``round-robin``, ``least-loaded`` (alias
``ll``) and ``power-of-two`` (aliases ``p2c``, ``power-of-two-choices``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.validation import (
    duplicate_name_error,
    factory_arguments_error,
    prebuilt_override_error,
    require,
    spec_needs_name_error,
    unknown_name_error,
)

__all__ = [
    "Router",
    "RouterSpec",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "PowerOfTwoRouter",
    "register_router",
    "make_router",
    "get_router_spec",
    "router_names",
    "select_replica",
]


@runtime_checkable
class Router(Protocol):
    """Picks the replica that serves the next batch.

    ``select`` receives one non-negative load figure per replica —
    outstanding simulated work under the traffic simulator, cumulative
    serving seconds when routing direct calls — and returns a replica
    index.  Routers may keep state (round-robin position, RNG); ``reset``
    returns them to their initial state so a router can be reused across
    runs deterministically.

    The protocol is runtime-checkable: any object carrying ``name`` /
    ``select`` / ``reset`` is a router, so custom policies plug into
    :class:`~repro.serving.cluster.ServingCluster` without subclassing
    (register them with :func:`register_router` to use them by name).
    """

    name: str

    def select(self, loads: Sequence[float]) -> int:
        """Replica index for the next batch given per-replica loads."""
        ...

    def reset(self) -> None:
        """Restore the initial routing state."""
        ...


class RoundRobinRouter:
    """Cycle through replicas in order, ignoring load."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def select(self, loads: Sequence[float]) -> int:
        choice = self._next % len(loads)
        self._next += 1
        return choice

    def reset(self) -> None:
        self._next = 0


class LeastLoadedRouter:
    """Always the replica with the least outstanding work (ties: lowest id)."""

    name = "least-loaded"

    def select(self, loads: Sequence[float]) -> int:
        return int(np.argmin(loads))

    def reset(self) -> None:
        """Stateless: nothing to restore."""


class PowerOfTwoRouter:
    """Sample two distinct replicas, send the batch to the less loaded one."""

    name = "power-of-two"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def select(self, loads: Sequence[float]) -> int:
        if len(loads) == 1:
            return 0
        a, b = self._rng.choice(len(loads), size=2, replace=False)
        return int(a if loads[a] <= loads[b] else b)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)


# ---------------------------------------------------------------------- #
# registry: mirrors repro.core.solver.registry
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RouterSpec:
    """One registry entry: a canonical name, a factory, and metadata."""

    name: str
    factory: Callable[..., Router]
    description: str = ""
    aliases: tuple[str, ...] = ()


_REGISTRY: dict[str, RouterSpec] = {}
_ALIASES: dict[str, str] = {}


def register_router(
    name: str,
    factory: Callable[..., Router],
    *,
    description: str = "",
    aliases: tuple[str, ...] = (),
) -> RouterSpec:
    """Add a routing policy under ``name`` (plus ``aliases``); returns the spec.

    ``factory(**kwargs) -> Router`` builds a fresh router per call (the
    policy class itself usually is the factory); names and aliases share
    one namespace and must be unique.
    """
    spec = RouterSpec(name=name, factory=factory, description=description, aliases=tuple(aliases))
    for label in (name, *spec.aliases):
        if label in _REGISTRY or label in _ALIASES:
            raise duplicate_name_error("router", label)
    _REGISTRY[name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = name
    return spec


def router_names() -> tuple[str, ...]:
    """Canonical names of every registered router (aliases excluded)."""
    return tuple(_REGISTRY)


def get_router_spec(name: str) -> RouterSpec:
    """Resolve a name or alias to its :class:`RouterSpec` (ValueError if unknown)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise unknown_name_error("router", name, set(_REGISTRY) | set(_ALIASES)) from None


def _build(spec: RouterSpec, kwargs: dict) -> Router:
    """Invoke a factory, turning bad keywords into a helpful ValueError."""
    try:
        return spec.factory(**kwargs)
    except TypeError as exc:
        raise factory_arguments_error("router", spec.name, exc) from None


def make_router(spec, /, **kwargs) -> Router:
    """Build a router from a declarative spec.

    ``spec`` is a registered name or alias, a ``{"name": ..., **kwargs}``
    dict (explicit keywords override the dict's), a :class:`RouterSpec`,
    or an already-built :class:`Router` (returned as-is; overrides are
    refused because a built router's configuration is fixed).
    """
    if isinstance(spec, str):
        return _build(get_router_spec(spec), kwargs)
    if isinstance(spec, dict):
        merged = dict(spec)
        try:
            name = merged.pop("name")
        except KeyError:
            raise spec_needs_name_error("router") from None
        merged.update(kwargs)
        return _build(get_router_spec(name), merged)
    if isinstance(spec, RouterSpec):
        return _build(spec, kwargs)
    if isinstance(spec, Router):  # reprolint: ignore[REP006] — structural duck-check, not an implementation fork
        if kwargs:
            raise prebuilt_override_error("router")
        return spec
    raise TypeError(f"cannot build a router from {type(spec).__name__}")


def select_replica(router: Router, loads: Sequence[float]) -> int:
    """One routing decision, with the returned index validated in range."""
    choice = router.select(loads)
    require(0 <= choice < len(loads), f"router returned replica {choice} for {len(loads)} replicas")
    return choice


register_router(
    "round-robin",
    RoundRobinRouter,
    description="cycle through replicas in order, load-blind",
    aliases=("rr",),
)
register_router(
    "least-loaded",
    LeastLoadedRouter,
    description="always the replica with the least outstanding work",
    aliases=("ll",),
)
register_router(
    "power-of-two",
    PowerOfTwoRouter,
    description="sample two replicas, take the less loaded one",
    aliases=("p2c", "power-of-two-choices"),
)
