"""Which modules each entry point loads: every layer a caller does not use
stays unimported.

Each case runs in a fresh interpreter, since an in-process test sees every
module the suite imported before it, and asserts module sets, never
timings.  The static/compiled query stack is the one exception that must
load up front: the socket server imports it before it answers its first
ping, so no request pays for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_ROOT = os.path.dirname(os.path.dirname(repro.__file__))

FILTER_SOURCE = "process filter (y) returns (x) { local z; x := true when (y /= z); z := y pre true; }"


def _loaded_after(code: str) -> set:
    """The modules ``sys.modules`` holds once ``code`` ran in a fresh interpreter."""
    probe = code + "\nimport json as _json, sys as _sys\nprint(_json.dumps(sorted(_sys.modules)))\n"
    environment = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    output = subprocess.run(
        [sys.executable, "-c", probe], env=environment, check=True,
        capture_output=True, text=True, cwd=REPO_ROOT,
    ).stdout
    return set(json.loads(output.splitlines()[-1]))


def _within(modules: set, *packages: str) -> set:
    """The loaded modules that are one of ``packages`` or inside one."""
    return {
        module for module in modules
        if any(module == package or module.startswith(package + ".") for package in packages)
    }


def test_importing_repro_loads_only_the_language_layer():
    loaded = _within(_loaded_after("import repro"), "repro")
    assert loaded - _within(loaded, "repro.lang") == {"repro"}


def test_the_input_path_loads_no_engine_layer():
    loaded = _loaded_after(
        "from repro.gen.corpus import Corpus\n"
        "from repro.gen.topologies import sample_design\n"
        "from repro.lang.printer import format_normalized_source\n"
        "corpus = Corpus.load('corpus/corpus.json')\n"
        "for entry in corpus.entries[:8]:\n"
        "    for component in sample_design(entry.seed, depth=entry.depth).components:\n"
        "        format_normalized_source(component)\n"
    )
    assert "repro.gen.topologies" in loaded
    assert not _within(
        loaded,
        "repro.api", "repro.mc", "repro.bdd", "repro.clocks", "repro.properties",
        "repro.codegen", "repro.service", "repro.obs",
    )


def test_a_verification_query_loads_no_deployment_layer():
    loaded = _loaded_after(
        "from repro import Design\n"
        f"source = {FILTER_SOURCE!r}\n"
        "for prop in ('non-blocking', 'weak-endochrony'):\n"
        "    for method in ('static', 'compiled'):\n"
        "        assert Design.from_source(source).verify(prop, method).holds\n"
    )
    assert {"repro.api.backends", "repro.mc.compiled"} <= loaded
    assert not _within(
        loaded,
        "repro.codegen", "repro.api.deploy", "repro.gen", "repro.library",
        "repro.service", "numpy",
    )
    # engines and semantics of the other methods and properties load at
    # their own seams
    assert not _within(
        loaded,
        "repro.mc.symbolic", "repro.properties.endochrony",
        "repro.properties.isochrony", "repro.semantics.denotational",
    )


def test_the_service_cli_loads_the_query_stack_and_no_deployment_layer():
    loaded = _loaded_after("import repro.service.__main__")
    assert {
        "repro.api.session",
        "repro.api.backends",
        "repro.properties.composition",
        "repro.mc.compiled",
        "repro.mc.onthefly",
    } <= loaded
    assert not _within(loaded, "repro.codegen", "repro.api.deploy", "repro.gen")
