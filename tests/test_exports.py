"""Every name a ``repro`` module exports through ``__all__`` resolves on import."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro", *(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
