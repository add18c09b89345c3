"""The one registry contract, checked on every registry.

The solver, scheduler and router registries are three instances of
:class:`repro.core.validation.Registry`.  Every test here runs against
all three through their public bindings (``register_*`` / ``make_*`` /
``get_*_spec`` / ``*_names``), so a behaviour or message that drifts in
one registry fails for that registry by name.  Tests that register
entries work on copies of the registry's tables (``isolated``), so a
failing test cannot leak an entry into the rest of the suite.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.baselines import PALS, CCDPlusPlus, NomadSGD, ParallelSGD, SparkALS
from repro.core import BaseALS, MemoryOptimizedALS, ScaleUpALS, StreamingALS, schedule
from repro.core.schedule import (
    EagerScheduler,
    RoundRobinScheduler,
    SchedulerSpec,
    SerialScheduler,
    get_scheduler_spec,
    make_scheduler,
    register_scheduler,
    scheduler_names,
)
from repro.core.solver import registry as solver_registry
from repro.core.solver.registry import SolverSpec, get_solver_spec, make_solver, register_solver, solver_names
from repro.core.validation import Registry, Spec, unknown_name_error
from repro.serving import routing
from repro.serving.routing import (
    LeastLoadedRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    RouterSpec,
    get_router_spec,
    make_router,
    register_router,
    router_names,
)


@dataclass(frozen=True)
class Case:
    """One registry under test: its bindings, its entries and a prebuilt instance."""

    kind: str
    registry: Registry
    register: Callable
    make: Callable
    get: Callable
    names: Callable
    spec_type: type
    builtins: dict  # canonical name -> (its exact aliases, the class it builds)
    prebuilt: Callable


CASES = [
    Case(
        "solver",
        solver_registry._SOLVERS,
        register_solver,
        make_solver,
        get_solver_spec,
        solver_names,
        SolverSpec,
        {
            "base": (("base-als",), BaseALS),
            "mo": (("mo-als",), MemoryOptimizedALS),
            "su": (("su-als",), ScaleUpALS),
            "streaming-als": (("streaming",), StreamingALS),
            "ccd++": (("ccd",), CCDPlusPlus),
            "libmf-sgd": (("libmf", "hogwild-sgd"), ParallelSGD),
            "nomad": (("nomad-sgd",), NomadSGD),
            "pals": ((), PALS),
            "spark-als": (("spark",), SparkALS),
        },
        lambda: make_solver("base", f=4, iterations=1),
    ),
    Case(
        "scheduler",
        schedule._SCHEDULERS,
        register_scheduler,
        make_scheduler,
        get_scheduler_spec,
        scheduler_names,
        SchedulerSpec,
        {"serial": ((), SerialScheduler), "eager": (("heft", "eager-greedy"), EagerScheduler), "round-robin": (("rr",), RoundRobinScheduler)},
        SerialScheduler,
    ),
    Case(
        "router",
        routing._ROUTERS,
        register_router,
        make_router,
        get_router_spec,
        router_names,
        RouterSpec,
        {
            "round-robin": (("rr",), RoundRobinRouter),
            "least-loaded": (("ll",), LeastLoadedRouter),
            "power-of-two": (("p2c", "power-of-two-choices"), PowerOfTwoRouter),
        },
        lambda: PowerOfTwoRouter(seed=5),
    ),
]

pytestmark = pytest.mark.parametrize("case", CASES, ids=[case.kind for case in CASES])


@pytest.fixture
def isolated(case, monkeypatch):
    """Let the test register into copies of the registry's tables, restored afterwards."""
    monkeypatch.setattr(case.registry, "_specs", dict(case.registry._specs))
    monkeypatch.setattr(case.registry, "_aliases", dict(case.registry._aliases))
    return case


def _all_labels(case) -> list[str]:
    return sorted({*case.names(), *(alias for name in case.names() for alias in case.get(name).aliases)})


def test_unknown_name_message(case):
    expected = f"unknown {case.kind} 'no-such-thing'; choose from {_all_labels(case)}"
    for lookup in (case.make, case.get):
        with pytest.raises(ValueError) as excinfo:
            lookup("no-such-thing")
        assert str(excinfo.value) == expected
    with pytest.raises(ValueError, match=f"^unknown {case.kind} 'no-such-thing'"):
        case.make({"name": "no-such-thing"})


def test_unknown_name_message_helper_sorts_known_names(case):
    err = unknown_name_error(case.kind, "x", {"b", "a"})
    assert isinstance(err, ValueError) and str(err) == f"unknown {case.kind} 'x'; choose from ['a', 'b']"


def test_builtin_entries_and_aliases(case):
    assert set(case.builtins) <= set(case.names())
    for canonical, (aliases, cls) in case.builtins.items():
        spec = case.get(canonical)
        assert isinstance(spec, case.spec_type) and spec.name == canonical and spec.description
        assert spec.aliases == aliases
        assert type(case.make(canonical)) is cls


def test_alias_resolves_to_its_canonical_spec(case):
    for canonical in case.names():
        spec = case.get(canonical)
        built = type(case.make(canonical))
        for alias in spec.aliases:
            assert case.get(alias) is spec
            assert type(case.make(alias)) is built
        assert type(case.make({"name": canonical})) is built
        assert type(case.make(spec)) is built


def test_names_exclude_aliases(case):
    names = case.names()
    assert isinstance(names, tuple) and len(set(names)) == len(names)
    aliases = {alias for name in names for alias in case.get(name).aliases}
    assert aliases and not aliases & set(names)


def test_duplicate_name_or_alias_refused_with_registry_unchanged(isolated):
    case = isolated
    canonical, aliases = next((name, aliases) for name, (aliases, _) in case.builtins.items() if aliases)
    before = {label: case.get(label) for label in _all_labels(case)}
    with pytest.raises(ValueError, match=f"^{case.kind} name already registered: '{re.escape(canonical)}'$"):
        case.register(canonical, case.prebuilt)
    with pytest.raises(ValueError, match=f"^{case.kind} name already registered: '{re.escape(aliases[0])}'$"):
        case.register("fresh", case.prebuilt, aliases=("fresh-alias", aliases[0]))
    with pytest.raises(ValueError, match=f"^{case.kind} name already registered: '{re.escape(canonical)}'$"):
        case.register("fresh", case.prebuilt, aliases=(canonical,))
    assert {label: case.get(label) for label in _all_labels(case)} == before
    for label in ("fresh", "fresh-alias"):
        with pytest.raises(ValueError, match=f"^unknown {case.kind} "):
            case.get(label)


def test_register_returns_a_frozen_spec_of_the_registry_type(isolated):
    case = isolated
    spec = case.register("probe", case.prebuilt, description="a probe", aliases=["probe-alias"])
    assert type(spec) is case.spec_type and isinstance(spec, Spec)
    assert (spec.name, spec.description, spec.aliases) == ("probe", "a probe", ("probe-alias",))
    assert case.get("probe-alias") is spec and case.names()[-1] == "probe"
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.name = "other"


def test_dict_spec_without_name_refused(case):
    for spec in ({}, {"f": 8}):
        with pytest.raises(ValueError, match=f"^a {case.kind} spec dict needs a 'name' key$"):
            case.make(spec)


def test_explicit_keywords_override_the_dicts(isolated):
    case = isolated
    instance = case.prebuilt()
    seen = []
    spec = case.register("probe", lambda **kwargs: seen.append(kwargs) or instance)
    assert case.make({"name": "probe", "a": 1, "b": 2}, b=3, c=4) is instance
    assert case.make("probe", a=5) is instance
    assert case.make(spec, a=6) is instance
    assert seen == [{"a": 1, "b": 3, "c": 4}, {"a": 5}, {"a": 6}]


def test_bad_factory_keywords_are_a_value_error(case):
    canonical = next(iter(case.builtins))
    for spec in (canonical, {"name": canonical}, case.get(canonical)):
        with pytest.raises(ValueError, match=f"^invalid arguments for {case.kind} '{re.escape(canonical)}': "):
            case.make(spec, bogus=1)


def test_prebuilt_instance_returned_as_is_with_overrides_refused(case):
    instance = case.prebuilt()
    assert isinstance(instance, case.registry.protocol)
    assert case.make(instance) is instance
    with pytest.raises(ValueError, match=f"^cannot apply overrides to an already-built {case.kind}$"):
        case.make(instance, seed=1)


def test_spec_from_another_registry_refused(case):
    for other in CASES:
        if other is case:
            continue
        foreign = other.get(next(iter(other.builtins)))
        with pytest.raises(TypeError, match=f"^cannot build a {case.kind} from {type(foreign).__name__}$"):
            case.make(foreign)
    with pytest.raises(TypeError, match=f"^cannot build a {case.kind} from int$"):
        case.make(42)
