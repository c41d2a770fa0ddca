"""Every name the package and its modules export resolves, once each."""
import importlib
import pkgutil

import pytest

import nmixtime

MODULES = ["nmixtime"] + [f"nmixtime.{m.name}" for m in pkgutil.iter_modules(nmixtime.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
