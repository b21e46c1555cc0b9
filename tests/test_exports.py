"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import vankamg

MODULES = ["vankamg"] + [f"vankamg.{m.name}" for m in pkgutil.iter_modules(vankamg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
