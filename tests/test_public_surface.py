"""Every public package's ``__all__`` names only objects that exist.

A name deleted from a module but left in its ``__all__`` breaks
``from <module> import *`` and advertises an entry point that is gone.
"""

import importlib

import pytest

PACKAGES = ["repro", "repro.api", "repro.properties", "repro.library", "repro.mc", "repro.gen"]


@pytest.mark.parametrize("name", PACKAGES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
