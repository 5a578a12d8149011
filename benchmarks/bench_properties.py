"""E2 / E3 / E10 / E11 — the formal properties of Section 4, regenerated and timed.

* the filter and the merge are endochronous, their composition is not (E2, E10);
* the filter ‖ merge composition is nevertheless isochronous (E3);
* weak endochrony of the compositions is model-checked with the invariants of
  Section 4.1 (E11).

The last scenarios time one cold weak-endochrony query per engine on
``independent_components(5)``, ``crossbar(2, 2)`` and, compiled,
``independent_components(6)``, each in a fresh session, and assert that it
holds.  Every record carries the time the same query took while the axioms
and the invariants scanned a state's transitions for every successor query,
before the per-state tables of :class:`repro.mc.onthefly.StateTable`: the
median of three runs, one fresh interpreter each, on a 2-vCPU host (Python
3.11.7).  Run with::

    PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/bench_properties.py
"""

import gc

import pytest
from _record import recorder, timed

from repro.api.session import Design
from repro.gen.topologies import crossbar, independent_components

from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker
from repro.properties.compilable import ProcessAnalysis

RECORD = recorder("properties")
from repro.properties.endochrony import check_endochrony_on_traces, verify_endochrony
from repro.properties.isochrony import check_isochrony
from repro.properties.nonblocking import verify_non_blocking
from repro.properties.weak_endochrony import check_weak_endochrony, model_check_weak_endochrony


def test_static_endochrony_checks(benchmark, paper_processes):
    """E2/E10: static endochrony of filter, merge, buffer; non-endochrony of the composition."""

    def verdicts():
        return (
            verify_endochrony(paper_processes["filter"]).holds,
            verify_endochrony(paper_processes["merge"]).holds,
            verify_endochrony(paper_processes["buffer"]).holds,
            verify_endochrony(paper_processes["composition"]).holds,
        )

    filter_ok, merge_ok, buffer_ok, composition_ok = benchmark(verdicts)
    assert filter_ok and merge_ok and buffer_ok
    assert not composition_ok


def test_trace_based_endochrony_of_filter(benchmark, paper_processes):
    """Definition 1 checked on bounded traces of the filter."""
    report = benchmark(
        check_endochrony_on_traces,
        paper_processes["filter"],
        {"y": [True, False, False, True]},
        6,
    )
    assert report.holds


def test_isochrony_of_filter_and_merge(benchmark, paper_processes):
    """E3: p | q ≈ p ‖ q for the filter and the merge."""
    report = benchmark(
        check_isochrony,
        paper_processes["filter"],
        paper_processes["merge"],
        {"y": [True, False], "c": [True, False], "z": [False]},
        5,
    )
    assert report.holds


def test_weak_endochrony_of_filter_merge(benchmark, paper_processes):
    """E11: Definition 2 on the filter|merge composition's reaction LTS."""
    report = benchmark(check_weak_endochrony, paper_processes["composition"])
    assert report.holds()
    _report, seconds = timed(check_weak_endochrony, paper_processes["composition"])
    RECORD.record(
        "weak endochrony composition", seconds=seconds, states=report.states_explored
    )


def test_weak_endochrony_invariants_of_main(benchmark, paper_processes):
    """E11: the Section 4.1 invariants (StateIndependent, OrderIndependent, FlowIndependent)."""
    process = paper_processes["pc_main"]
    analysis = ProcessAnalysis(process)
    # explored up front: the timed runs measure the invariant check alone
    checker = OnTheFlyChecker(LazyReactionLTS(process, analysis.hierarchy))
    checker.explore_all()
    report = benchmark(model_check_weak_endochrony, process, analysis, checker=checker)
    assert report.holds()


def test_non_blocking_of_compositions(benchmark, paper_processes):
    """Definition 4 on the two compositions used throughout the paper."""

    def verdicts():
        return (
            verify_non_blocking(paper_processes["composition"]),
            verify_non_blocking(paper_processes["pc_main"]),
        )

    first, second = benchmark(verdicts)
    assert first.holds and second.holds
    _verdicts, seconds = timed(verdicts)
    RECORD.record("non-blocking compositions", seconds=seconds)


#: seconds of the same cold query with the list-scan successor queries
LIST_SCAN_SECONDS = {
    ("independent_components_5", "compiled"): 0.793,
    ("independent_components_5", "explicit"): 0.830,
    ("independent_components_5", "symbolic"): 0.204,
    ("crossbar_2_2", "compiled"): 0.055,
    ("crossbar_2_2", "explicit"): 0.077,
    ("crossbar_2_2", "symbolic"): 0.116,
    ("independent_components_6", "compiled"): 12.83,
}

#: one product state with 729 reactions: the query the tables were sized on
TARGETS = {("independent_components_6", "compiled"): 2.0}

SCALING_DESIGNS = {
    "independent_components_5": lambda: independent_components(5),
    "independent_components_6": lambda: independent_components(6),
    "crossbar_2_2": lambda: crossbar(2, 2),
}


@pytest.mark.parametrize("scenario,method", sorted(LIST_SCAN_SECONDS))
def test_weak_endochrony_on_one_wide_state(scenario, method):
    """Definition 2 (compiled, explicit) and Section 4.1 (symbolic) where one
    product state enables hundreds of reactions: every query holds."""
    components, _composition = SCALING_DESIGNS[scenario]()
    design = Design(name=scenario, components=list(components))
    gc.collect()
    verdict, seconds = timed(design.verify, "weak-endochrony", method, max_states=512)
    assert verdict.holds, f"{scenario}: {method} weak endochrony should hold"
    extra = {"target_seconds": TARGETS[(scenario, method)]} if (scenario, method) in TARGETS else {}
    RECORD.record(
        f"{scenario} {method} weak-endochrony",
        seconds=seconds,
        states=verdict.cost.states,
        transitions=verdict.cost.transitions,
        list_scan_seconds=LIST_SCAN_SECONDS[(scenario, method)],
        **extra,
    )
