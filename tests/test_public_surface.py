"""Every public package's ``__all__`` names only objects that exist.

A name deleted from a module but left in its ``__all__`` breaks
``from <module> import *`` and advertises an entry point that is gone.
Packages re-export lazily (:func:`repro._lazy_exports`), so a stale entry
of an export map would otherwise only fail at a user's attribute access.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.bdd",
    "repro.clocks",
    "repro.codegen",
    "repro.gen",
    "repro.lang",
    "repro.library",
    "repro.mc",
    "repro.mocc",
    "repro.obs",
    "repro.properties",
    "repro.sched",
    "repro.semantics",
    "repro.service",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("name", PACKAGES)
def test_lazy_exports_are_the_defining_modules_objects(name):
    package = importlib.import_module(name)
    for export, module_name in getattr(package, "_EXPORTS", {}).items():
        # the defining module first: a submodule of the same name as the
        # export, bound on the package by its import, must not shadow it
        defined = getattr(importlib.import_module(module_name, name), export)
        assert getattr(package, export) is defined, f"{name}.{export}"
