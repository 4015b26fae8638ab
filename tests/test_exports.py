"""Every name a formlab module exports through ``__all__`` must exist, so a
deleted function cannot stay exported."""

import importlib
import pkgutil

import pytest

import formlab

MODULES = ["formlab"] + [f"formlab.{m.name}"
                         for m in pkgutil.iter_modules(formlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
