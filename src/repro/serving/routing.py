"""Routing policies as a registry: names in, :class:`Router` out.

Routing has the same declarative surface as training's solver registry
(:mod:`repro.core.solver.registry`) — both are instances of the one
:class:`~repro.core.validation.Registry`:

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
  solver registry raises.

Registered out of the box: ``round-robin``, ``least-loaded`` (alias
``ll``) and ``power-of-two`` (aliases ``p2c``, ``power-of-two-choices``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.validation import Registry, Spec, require

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

    ``select`` receives one non-negative load figure per replica in
    rotation — its outstanding simulated work at dispatch time, as the
    one dispatch step (:func:`~repro.serving.simulator.serve_window`)
    offers it to the replay and the facade alike — and returns an index
    into that list.  Routers may keep state (round-robin position, RNG);
    ``reset`` returns them to their initial state so a router can be
    reused across runs deterministically.

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
# registry
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RouterSpec(Spec):
    """One router registry entry: a canonical name, a factory, and metadata."""


_ROUTERS = Registry("router", RouterSpec, Router)
register_router = _ROUTERS.register
make_router = _ROUTERS.make
get_router_spec = _ROUTERS.get
router_names = _ROUTERS.names


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
