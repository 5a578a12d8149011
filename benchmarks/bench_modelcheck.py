"""E11 — the cost of model checking weak endochrony (the approach the criterion avoids).

Times the construction of the reaction LTS and the checking of the Section
4.1 invariants, explicitly and symbolically (with the BDD engine standing in
for Sigali: each composed process is checked as a product of one), on the
paper's two compositions.
"""

from _lts import materialize, materialize_compiled
from _record import recorder, timed

from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker
from repro.mc.symbolic import SymbolicProductChecker
from repro.properties.compilable import ProcessAnalysis
from repro.properties.weak_endochrony import check_weak_endochrony, model_check_weak_endochrony

RECORD = recorder("modelcheck")


def test_lts_construction_filter_merge(benchmark, paper_processes):
    lts = benchmark(materialize, paper_processes["composition"])
    assert lts.state_count() >= 2
    _lts, seconds = timed(materialize, paper_processes["composition"])
    RECORD.record("materialize composition", seconds=seconds, states=lts.state_count())


def test_lts_construction_main(benchmark, paper_processes):
    lts = benchmark(materialize, paper_processes["pc_main"])
    assert lts.transition_count() >= 4
    _lts, seconds = timed(materialize, paper_processes["pc_main"])
    RECORD.record("materialize pc_main", seconds=seconds, states=lts.state_count())


def test_compiled_lts_construction_main(benchmark, paper_processes):
    """The compiled counterpart of the eager construction above."""
    lts = benchmark(materialize_compiled, paper_processes["pc_main"])
    assert lts.transition_count() >= 4
    _lts, seconds = timed(materialize_compiled, paper_processes["pc_main"])
    RECORD.record("materialize compiled pc_main", seconds=seconds, states=lts.state_count())


def test_explicit_invariants_main(benchmark, paper_processes):
    process = paper_processes["pc_main"]
    analysis = ProcessAnalysis(process)
    # explored up front: the timed runs measure the invariant check alone
    checker = OnTheFlyChecker(LazyReactionLTS(process, analysis.hierarchy))
    lts = checker.materialize()
    report = benchmark(model_check_weak_endochrony, process, analysis, checker=checker)
    assert report.holds()
    _report, seconds = timed(model_check_weak_endochrony, process, analysis, checker=checker)
    RECORD.record("invariants pc_main", seconds=seconds, states=lts.state_count())


def test_definition2_check_filter_merge(benchmark, paper_processes):
    process = paper_processes["composition"]
    # explored up front: the timed runs measure the axiom check alone
    checker = OnTheFlyChecker(LazyReactionLTS(process))
    lts = checker.materialize()
    report = benchmark(check_weak_endochrony, process, checker=checker)
    assert report.holds()
    _report, seconds = timed(check_weak_endochrony, process, checker=checker)
    RECORD.record("definition2 composition", seconds=seconds, states=lts.state_count())


def test_symbolic_reachability_main(benchmark, paper_processes):
    process = paper_processes["pc_main"]
    lts = materialize(process)

    def explore():
        checker = SymbolicProductChecker([lts], components=[process])
        return checker.reachable_count()

    count = benchmark(explore)
    assert count == lts.state_count()
    checker = SymbolicProductChecker([lts], components=[process])
    _count, seconds = timed(checker.reachable_count)
    RECORD.record(
        "symbolic pc_main", seconds=seconds, states=count, bdd_nodes=checker.bdd_nodes()
    )


def test_symbolic_reachability_filter_merge(benchmark, paper_processes):
    process = paper_processes["composition"]
    lts = materialize(process)

    def explore():
        checker = SymbolicProductChecker([lts], components=[process])
        return checker.reachable_count()

    count = benchmark(explore)
    assert count == lts.state_count()
    checker = SymbolicProductChecker([lts], components=[process])
    _count, seconds = timed(checker.reachable_count)
    RECORD.record(
        "symbolic composition", seconds=seconds, states=count, bdd_nodes=checker.bdd_nodes()
    )
