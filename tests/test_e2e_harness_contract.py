"""The e2e benchmark's span list still resolves against the program.

``benchmarks/e2e/spans.py`` wraps named callables of :mod:`repro` from
outside to attribute host wall to layers (``run.py --trace 1``).  The
harness is frozen, so a refactor that renames or moves a wrapped
callable would silently drop its span; these tests make that a tier-1
failure instead of a bench-smoke one.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.serving import FactorStore, TopK

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _names_in_bodies(code: types.CodeType) -> set[str]:
    """The names read by every function or class body nested in ``code`` (not by ``code``'s own statements, such as its imports)."""
    names = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= set(const.co_names) | _names_in_bodies(const)
    return names


@pytest.mark.parametrize(("module", "path", "name", "opens_request"), spans.PATCHES, ids=[f"{m}:{p}" for m, p, *_ in spans.PATCHES])
def test_patch_target_resolves_where_it_is_looked_up(module, path, name, opens_request):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # The recorder reads the target from the owner's own dict (a class's
    # or the calling module's), not through inheritance.
    assert callable(vars(owner).get(attr)), f"{module}.{path} is not defined where spans.py patches it"
    if not outer:
        # A module-level function is patched in the calling module, so a
        # function of that module must call it by this global name.
        source = Path(importlib.import_module(module).__file__).read_text()
        assert attr in _names_in_bodies(compile(source, module, "exec")), f"no function of {module} looks up {attr}"


def test_recommend_batch_span_wraps_the_store_call():
    rng = np.random.default_rng(0)
    store = FactorStore(rng.standard_normal((20, 4)), rng.standard_normal((50, 4)), n_shards=2)
    users = np.array([1, 5, 1, 7])
    want = store.recommend_batch(users, k=3)
    original = vars(FactorStore)["recommend_batch"]
    with spans.SpanRecorder() as recorder:
        got = store.recommend_batch(users, k=3)
    assert vars(FactorStore)["recommend_batch"] is original
    assert isinstance(got, TopK) and got == want
    table = recorder.self_times()
    assert table["store.recommend_batch"]["calls"] == 1
