"""Every name a module exports exists, so no deleted routine stays listed."""

import importlib
import pkgutil

import pytest

import unicanon

MODULES = ["unicanon"] + [
    f"unicanon.{info.name}" for info in pkgutil.iter_modules(unicanon.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing
