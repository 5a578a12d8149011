"""E2 / E3 / E10 / E11 — the formal properties of Section 4, regenerated and timed.

* the filter and the merge are endochronous, their composition is not (E2, E10);
* the filter ‖ merge composition is nevertheless isochronous (E3);
* weak endochrony of the compositions is model-checked with the invariants of
  Section 4.1 (E11).
"""

from _record import recorder, timed

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
