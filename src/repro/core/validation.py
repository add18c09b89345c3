"""One shared vocabulary for hyper-parameter and registry validation.

Every solver config used to police its own constructor with home-grown
``ValueError`` strings, so the same mistake — ``f=0``, a negative epoch
count, a learning rate of zero — read differently depending on which
solver rejected it.  :func:`validate_hyperparameters` is the single
gate: each config passes the fields it has, only those are checked, and
a given violation raises the *identical* message everywhere (the
conformance suite regression-tests this across ``ALSConfig``,
``SGDConfig``, CCD++ and PALS).

:class:`Registry` is the one declarative registry design — names in,
instances out.  The solver (:mod:`repro.core.solver.registry`),
scheduler (:mod:`repro.core.schedule`) and router
(:mod:`repro.serving.routing`) registries are three instances of it, so
they raise identical errors by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "Registry",
    "Spec",
    "require",
    "unknown_name_error",
    "validate_hyperparameters",
]

#: Canonical message per violation; keyed by field for the docs/tests.
MESSAGES = {
    "f": "f must be positive",
    "lam": "lam must be non-negative",
    "iterations": "iterations must be non-negative",
    "epochs": "epochs must be non-negative",
    "lr": "lr must be positive",
    "lr_decay": "lr_decay must be in (0, 1]",
    "inner_sweeps": "inner_sweeps must be >= 1",
    "workers": "workers must be >= 1",
    "cores": "cores must be >= 1",
    "bin_size": "bin_size must be in [1, 1024]",
    "row_batch": "row_batch must be positive",
    "init_scale": "init_scale must be positive",
}


def unknown_name_error(kind: str, name: object, known: Iterable[str]) -> ValueError:
    """The one unknown-registry-name error, identical for every registry.

    All three declarative registries — solvers
    (:mod:`repro.core.solver.registry`), routers
    (:mod:`repro.serving.routing`) and schedulers
    (:mod:`repro.core.schedule`) — raise exactly this shape on an
    unrecognised name, so callers can match ``unknown solver`` /
    ``unknown router`` / ``unknown scheduler`` without caring which
    registry rejected it::

        unknown solver 'mos'; choose from ['base', 'ccd++', ...]
        unknown router 'rand'; choose from ['least-loaded', 'll', ...]
        unknown scheduler 'hefty'; choose from ['eager', 'eager-greedy', ...]
    """
    return ValueError(f"unknown {kind} {name!r}; choose from {sorted(known)}")


def require(condition: object, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` is truthy.

    The one-line gate config and registry modules use for their ad-hoc
    invariants (``replicas must be at least 1``, ``max_rows must be
    positive``, ...).  Routing every such check through this helper keeps
    the project invariant — config/registry ``ValueError``s come from
    :mod:`repro.core.validation` — mechanically checkable; ``reprolint``
    rule REP003 enforces it.
    """
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class Spec:
    """One registry entry: a canonical name, a factory, and metadata."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    aliases: tuple[str, ...] = ()


class Registry:
    """Declarative construction: a registered name in, a built instance out.

    Parameters
    ----------
    kind:
        The noun every error names (``"solver"``, ``"router"``, ...).
    spec_type:
        The :class:`Spec` subclass this registry's entries are; a spec of
        another registry's type is refused by :meth:`make`.
    protocol:
        The runtime-checkable protocol a prebuilt instance satisfies;
        :meth:`make` returns such an instance as-is.
    """

    def __init__(self, kind: str, spec_type: type[Spec], protocol: type) -> None:
        self.kind = kind
        self.spec_type = spec_type
        self.protocol = protocol
        self._specs: dict[str, Spec] = {}
        self._aliases: dict[str, str] = {}

    def register(self, name: str, factory: Callable[..., Any], *, description: str = "", aliases: tuple[str, ...] = (), **metadata) -> Spec:
        """Add ``factory`` under ``name`` (plus ``aliases``); returns the spec.

        ``factory(**kwargs)`` builds a fresh instance per call; names and
        aliases share one namespace and must be unique.  A refused
        registration leaves the registry unchanged.
        """
        spec = self.spec_type(name=name, factory=factory, description=description, aliases=tuple(aliases), **metadata)
        for label in (name, *spec.aliases):
            if label in self._specs or label in self._aliases:
                raise ValueError(f"{self.kind} name already registered: {label!r}")
        self._specs[name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = name
        return spec

    def names(self) -> tuple[str, ...]:
        """Canonical names of every registered entry (aliases excluded)."""
        return tuple(self._specs)

    def get(self, name: str) -> Spec:
        """Resolve a name or alias to its spec (ValueError if unknown)."""
        try:
            return self._specs[self._aliases.get(name, name)]
        except KeyError:
            raise unknown_name_error(self.kind, name, set(self._specs) | set(self._aliases)) from None

    def make(self, spec, /, **kwargs):
        """Build an instance from a declarative spec.

        ``spec`` is a registered name or alias, a ``{"name": ..., **kwargs}``
        dict (explicit keywords override the dict's), a spec of this
        registry, or an already-built instance of its protocol (returned
        as-is; overrides are refused because its configuration is fixed).
        Keywords the factory does not accept raise ``ValueError``.
        """
        if isinstance(spec, str):
            spec = self.get(spec)
        elif isinstance(spec, dict):
            merged = dict(spec)
            if "name" not in merged:
                raise ValueError(f"a {self.kind} spec dict needs a 'name' key")
            spec = self.get(merged.pop("name"))
            kwargs = {**merged, **kwargs}
        elif not isinstance(spec, self.spec_type):
            if not isinstance(spec, self.protocol):
                raise TypeError(f"cannot build a {self.kind} from {type(spec).__name__}")
            if kwargs:
                raise ValueError(f"cannot apply overrides to an already-built {self.kind}")
            return spec
        try:
            return spec.factory(**kwargs)
        except TypeError as exc:
            raise ValueError(f"invalid arguments for {self.kind} {spec.name!r}: {exc}") from None


def validate_hyperparameters(
    *,
    f: int | None = None,
    lam: float | None = None,
    iterations: int | None = None,
    epochs: int | None = None,
    lr: float | None = None,
    lr_decay: float | None = None,
    inner_sweeps: int | None = None,
    workers: int | None = None,
    cores: int | None = None,
    bin_size: int | None = None,
    row_batch: int | None = None,
    init_scale: float | None = None,
) -> None:
    """Check only the fields that were passed; raise the canonical message.

    Keeping every solver config on this one helper means ``ALSConfig(f=0)``,
    ``SGDConfig(f=0)`` and ``CCDPlusPlus(f=0)`` all fail with the same
    ``ValueError("f must be positive")`` — callers can match on the message
    without knowing which solver family rejected the value.
    """
    if f is not None and f <= 0:
        raise ValueError(MESSAGES["f"])
    if lam is not None and lam < 0:
        raise ValueError(MESSAGES["lam"])
    if iterations is not None and iterations < 0:
        raise ValueError(MESSAGES["iterations"])
    if epochs is not None and epochs < 0:
        raise ValueError(MESSAGES["epochs"])
    if lr is not None and lr <= 0:
        raise ValueError(MESSAGES["lr"])
    if lr_decay is not None and not 0 < lr_decay <= 1:
        raise ValueError(MESSAGES["lr_decay"])
    if inner_sweeps is not None and inner_sweeps < 1:
        raise ValueError(MESSAGES["inner_sweeps"])
    if workers is not None and workers < 1:
        raise ValueError(MESSAGES["workers"])
    if cores is not None and cores < 1:
        raise ValueError(MESSAGES["cores"])
    if bin_size is not None and not 1 <= bin_size <= 1024:
        raise ValueError(MESSAGES["bin_size"])
    if row_batch is not None and row_batch <= 0:
        raise ValueError(MESSAGES["row_batch"])
    if init_scale is not None and init_scale <= 0:
        raise ValueError(MESSAGES["init_scale"])
