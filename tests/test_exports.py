"""Every exported name resolves, so a deletion cannot leave a stale export."""
import importlib
import pkgutil

import pytest

import transmute

MODULES = ["transmute"] + [
    f"transmute.{info.name}" for info in pkgutil.iter_modules(transmute.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)
