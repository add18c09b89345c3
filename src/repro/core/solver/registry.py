"""Declarative solver construction: names in, :class:`Solver` out.

The registry is the training-side counterpart of
:class:`~repro.serving.service.config.ServingConfig`: instead of every
experiment driver importing solver classes and hand-wiring their
constructors, a solver is requested by *name* plus uniform keyword
hyper-parameters, and the registered factory adapts them to whatever
constructor shape the implementation has:

>>> make_solver("mo", f=16, lam=0.05, iterations=10, seed=1)
>>> make_solver("ccd++", config=ALSConfig(f=16, iterations=10))
>>> make_solver({"name": "nomad", "f": 16, "iterations": 12, "workers": 30})

Every factory accepts the same surface — an optional ``config`` (any
solver family's config; common fields are mapped across, with
``iterations`` ↔ ``epochs`` translated for the SGD family), loose
hyper-parameter keywords, and the simulated-hardware keywords
(``machine`` / ``n_gpus`` / ``spec`` / ``reduction`` / ``scheduler``),
which apply to the GPU solvers and are ignored by the CPU baselines
exactly as ``CuMF(backend="mo", n_gpus=4)`` always ignored ``n_gpus``.

Registered out of the box: the three cuMF ALS levels (``base``, ``mo``,
``su``), the streaming minibatch solver (``streaming-als``) and every
baseline the paper compares against (``ccd++``,
``libmf-sgd``, ``nomad``, ``pals``, ``spark-als``).  New solvers join
with :func:`register_solver` and immediately work everywhere a name is
accepted — ``CuMF(backend=...)``, the experiment drivers, the
conformance suite and ``bench_solvers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.core.validation import duplicate_name_error, prebuilt_override_error, spec_needs_name_error, unknown_name_error
from repro.gpu.specs import TITAN_X

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.solver.protocol import Solver

__all__ = [
    "SolverSpec",
    "register_solver",
    "make_solver",
    "get_solver_spec",
    "solver_names",
]


@dataclass(frozen=True)
class SolverSpec:
    """One registry entry: a canonical name, a factory, and metadata."""

    name: str
    factory: Callable[..., "Solver"]
    description: str = ""
    kind: str = ""
    aliases: tuple[str, ...] = ()


_REGISTRY: dict[str, SolverSpec] = {}
_ALIASES: dict[str, str] = {}


def register_solver(
    name: str,
    factory: Callable[..., "Solver"],
    *,
    description: str = "",
    kind: str = "",
    aliases: tuple[str, ...] = (),
) -> SolverSpec:
    """Add a solver factory under ``name`` (plus ``aliases``); returns the spec.

    ``factory(config=None, **kwargs) -> Solver`` builds a fresh solver
    per call; names and aliases share one namespace and must be unique.
    """
    spec = SolverSpec(name=name, factory=factory, description=description, kind=kind, aliases=tuple(aliases))
    for label in (name, *spec.aliases):
        if label in _REGISTRY or label in _ALIASES:
            raise duplicate_name_error("solver", label)
    _REGISTRY[name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = name
    return spec


def solver_names() -> tuple[str, ...]:
    """Canonical names of every registered solver (aliases excluded)."""
    return tuple(_REGISTRY)


def get_solver_spec(name: str) -> SolverSpec:
    """Resolve a name or alias to its :class:`SolverSpec` (ValueError if unknown)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise unknown_name_error("solver", name, set(_REGISTRY) | set(_ALIASES)) from None


def make_solver(spec, /, **kwargs) -> "Solver":
    """Build a solver from a declarative spec.

    ``spec`` is a registered name or alias, a ``{"name": ..., **kwargs}``
    dict (explicit keywords override the dict's), a :class:`SolverSpec`,
    or an already-built solver (returned as-is; overrides are refused
    because a built solver's hyper-parameters are fixed).
    """
    if isinstance(spec, str):
        return get_solver_spec(spec).factory(**kwargs)
    if isinstance(spec, dict):
        merged = dict(spec)
        try:
            name = merged.pop("name")
        except KeyError:
            raise spec_needs_name_error("solver") from None
        merged.update(kwargs)
        return get_solver_spec(name).factory(**merged)
    if isinstance(spec, SolverSpec):
        return spec.factory(**kwargs)
    if hasattr(spec, "fit") and hasattr(spec, "iterate"):
        if kwargs:
            raise prebuilt_override_error("solver")
        return spec
    raise TypeError(f"cannot build a solver from {type(spec).__name__}")


# ---------------------------------------------------------------------- #
# config adaptation: any family's config + loose keywords -> the target
# family's config, with iterations <-> epochs translated.
# ---------------------------------------------------------------------- #
def _common_fields(config) -> dict:
    """The hyper-parameters every solver family shares, off any config."""
    if config is None:
        return {}
    out = {}
    for name in ("f", "lam", "seed"):
        if hasattr(config, name):
            out[name] = getattr(config, name)
    rounds = getattr(config, "iterations", None)
    if rounds is None:
        rounds = getattr(config, "epochs", None)
    if rounds is not None:
        out["iterations"] = rounds
    return out


def _als_config(config, overrides: dict):
    from repro.core.config import ALSConfig

    overrides = dict(overrides)
    if "epochs" in overrides:
        overrides.setdefault("iterations", overrides.pop("epochs"))
    if isinstance(config, ALSConfig):
        return config.with_(**overrides) if overrides else config
    return ALSConfig(**{**_common_fields(config), **overrides})


def _sgd_config(config, overrides: dict):
    from repro.baselines.sgd_hogwild import SGDConfig

    overrides = dict(overrides)
    if "iterations" in overrides:
        overrides.setdefault("epochs", overrides.pop("iterations"))
    if isinstance(config, SGDConfig):
        return replace(config, **overrides) if overrides else config
    mapped = _common_fields(config)
    if "iterations" in mapped:
        mapped["epochs"] = mapped.pop("iterations")
    return SGDConfig(**{**mapped, **overrides})


def _ccd_config(config, overrides: dict):
    from repro.baselines.ccd import CCDConfig

    overrides = dict(overrides)
    if "epochs" in overrides:
        overrides.setdefault("iterations", overrides.pop("epochs"))
    if isinstance(config, CCDConfig):
        return replace(config, **overrides) if overrides else config
    return CCDConfig(**{**_common_fields(config), **overrides})


# ---------------------------------------------------------------------- #
# factories — lazy imports keep the registry importable from anywhere.
# ---------------------------------------------------------------------- #
def _base_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, **hyper):
    from repro.core.als_base import BaseALS

    return BaseALS(_als_config(config, hyper))


def _mo_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, scheduler=None, **hyper):
    from repro.core.als_mo import MemoryOptimizedALS

    return MemoryOptimizedALS(_als_config(config, hyper), machine=machine, spec=spec, scheduler=scheduler)


def _su_factory(
    config=None,
    *,
    machine=None,
    n_gpus=4,
    spec=TITAN_X,
    reduction=None,
    q_override=None,
    force_data_parallel=False,
    scheduler=None,
    **hyper,
):
    from repro.core.als_su import ScaleUpALS

    return ScaleUpALS(
        _als_config(config, hyper),
        machine=machine,
        n_gpus=n_gpus,
        spec=spec,
        reduction=reduction,
        q_override=q_override,
        force_data_parallel=force_data_parallel,
        scheduler=scheduler,
    )


def _streaming_factory(
    config=None,
    *,
    machine=None,
    n_gpus=1,
    spec=TITAN_X,
    reduction=None,
    scheduler=None,
    n_chunks=4,
    **hyper,
):
    from repro.core.streaming import StreamingALS

    return StreamingALS(
        _als_config(config, hyper),
        machine=machine,
        n_gpus=n_gpus,
        spec=spec,
        reduction=reduction,
        scheduler=scheduler,
        n_chunks=n_chunks,
    )


def _ccd_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, **hyper):
    from repro.baselines.ccd import CCDPlusPlus

    return CCDPlusPlus(config=_ccd_config(config, hyper))


def _libmf_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, cores=30, node=None, full_scale=None, **hyper):
    from repro.baselines.sgd_hogwild import ParallelSGD

    return ParallelSGD(_sgd_config(config, hyper), cores=cores, node=node, full_scale=full_scale)


def _nomad_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, workers=30, cluster=None, full_scale=None, **hyper):
    from repro.baselines.nomad import NomadSGD

    return NomadSGD(_sgd_config(config, hyper), workers=workers, cluster=cluster, full_scale=full_scale)


def _pals_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, workers=8, **hyper):
    from repro.baselines.pals import PALS

    return PALS(_als_config(config, hyper), workers=workers)


def _spark_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, workers=50, **hyper):
    from repro.baselines.spark_als import SparkALS

    return SparkALS(_als_config(config, hyper), workers=workers)


register_solver(
    "base",
    _base_factory,
    kind="als",
    description="Algorithm 1: plain-NumPy ALS, the numerical reference",
    aliases=("base-als",),
)
register_solver(
    "mo",
    _mo_factory,
    kind="als",
    description="Algorithm 2: memory-optimized ALS on one simulated GPU",
    aliases=("mo-als",),
)
register_solver(
    "su",
    _su_factory,
    kind="als",
    description="Algorithm 3: scale-up ALS across a simulated multi-GPU machine",
    aliases=("su-als",),
)
register_solver(
    "streaming-als",
    _streaming_factory,
    kind="als",
    description="minibatch ALS over rating chunks arriving as scheduled task-graph waves",
    aliases=("streaming",),
)
register_solver(
    "ccd++",
    _ccd_factory,
    kind="ccd",
    description="CCD++ cyclic coordinate descent [32]",
    aliases=("ccd",),
)
register_solver(
    "libmf-sgd",
    _libmf_factory,
    kind="sgd",
    description="libMF-style block-partitioned parallel SGD [36]",
    aliases=("libmf", "hogwild-sgd"),
)
register_solver(
    "nomad",
    _nomad_factory,
    kind="sgd",
    description="NOMAD asynchronous column-token SGD [33]",
    aliases=("nomad-sgd",),
)
register_solver(
    "pals",
    _pals_factory,
    kind="als",
    description="PALS: row-partitioned ALS with full Θ replication [35]",
)
register_solver(
    "spark-als",
    _spark_factory,
    kind="als",
    description="SparkALS: ALS shipping per-partition Θ subsets",
    aliases=("spark",),
)
