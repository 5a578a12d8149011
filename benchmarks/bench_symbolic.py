"""Symbolic non-blocking (Section 4.1) on the scaling families.

Each scenario times one cold ``Design.verify("non-blocking", "symbolic")``
and asserts its verdict equals the compiled engine's.  The record also
carries what explains the time: the image fixpoint's iteration count, the
node count of every frontier it imaged, the reachable-state count and the
kernel's peak node count and relational-product calls.  Those come from a
second checker built on the same session after the timed query (the
component LTSs are cached there, so only the encoding and the fixpoint are
repeated).

ROADMAP targets: ``buffers_6`` under 0.5 s and ``buffers_8`` under 5 s;
each entry records its target beside its time.  ``independent_16`` (16
counters, no shared signal) took 6.7 s with a 2.3M-node relation before the
structural variable order; its record carries that time.  Its product has
3^16 reactions per state, too many for the compiled engine to serve as the
oracle, so its verdict is checked against the static criterion instead.
Run with::

    PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/bench_symbolic.py
"""

from __future__ import annotations

import pytest
from _record import recorder, timed

from repro.api.session import Design
from repro.gen.topologies import (
    arbiter_tree,
    chain_of_buffers,
    independent_components,
    pipeline_network,
)
from repro.mc.symbolic import SymbolicProductChecker

RECORD = recorder("symbolic")

#: exploration bound of the queries and of their compiled oracle
MAX_STATES = 4096

FAMILIES = {
    "buffers": chain_of_buffers,
    "arbiter": arbiter_tree,
    "pipeline": pipeline_network,
    "independent": independent_components,
}

SCENARIOS = (
    "buffers_4",
    "buffers_6",
    "buffers_8",
    "arbiter_3",
    "arbiter_4",
    "pipeline_12",
    "independent_16",
)

#: seconds each scenario should stay under (ROADMAP item 1)
TARGETS = {"buffers_6": 0.5, "buffers_8": 5.0}

#: seconds before the structural variable order, where the ROADMAP measured it
PARENT_SECONDS = {"independent_16": 6.7}

#: scenarios whose oracle is the static criterion (see the module docstring)
STATIC_ORACLE = ("independent_16",)


def _design(name: str) -> Design:
    family, size = name.rsplit("_", 1)
    components, _composition = FAMILIES[family](int(size))
    return Design(name=name, components=list(components))


def _product_checker(design: Design) -> SymbolicProductChecker:
    """The checker symbolic non-blocking builds, on the design's session."""
    context = design.context
    engine = context.onthefly(
        list(design.components),
        MAX_STATES,
        name=design.composition.name,
        types=design.composition.types,
        engine="compiled",
    )
    components = engine.lazy.abstracted
    return SymbolicProductChecker(
        [context.lts(component, MAX_STATES) for component in components],
        manager=context.manager,
        components=components,
    )


@pytest.mark.parametrize("name", SCENARIOS)
def test_symbolic_non_blocking(name):
    oracle_method = "static" if name in STATIC_ORACLE else "compiled"
    oracle = _design(name).verify("non-blocking", oracle_method, max_states=MAX_STATES)
    design = _design(name)
    verdict, seconds = timed(design.verify, "non-blocking", "symbolic", max_states=MAX_STATES)
    assert verdict.holds == oracle.holds, f"{name}: symbolic disagrees with {oracle_method}"
    stats = design.context.manager.stats()  # the timed query's kernel work

    checker = _product_checker(design)
    assert checker.is_non_blocking().holds == oracle.holds
    extra = {"target_seconds": TARGETS[name]} if name in TARGETS else {}
    if name in PARENT_SECONDS:
        extra["parent_seconds"] = PARENT_SECONDS[name]
    RECORD.record(
        name,
        seconds=seconds,
        states=checker.reachable_count(),
        bdd_nodes=checker.bdd_nodes(),
        holds=bool(verdict.holds),
        iterations=len(checker.frontier_nodes),
        frontier_nodes=list(checker.frontier_nodes),
        peak_nodes=stats["peak_nodes"],
        and_exists_calls=stats["and_exists_calls"],
        **extra,
    )
