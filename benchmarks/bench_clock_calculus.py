"""E5 / E6 / E7 / E8 — the clock calculus on the buffer, regenerated and timed.

Each benchmark re-runs one stage of the Polychrony pipeline on the paper's
buffer and re-asserts the facts the paper derives from it: the clock
relations and classes of Section 3.2, the hierarchy of Section 3.3, the
disjunctive form of Section 3.4 and the scheduling graph of Section 3.5.
A further scenario scales the hierarchy and the Section 5.1 constraint
report to the ``pipeline_network(8)`` composition and checks that every
entailment and feasibility query is decided without interning a BDD node.

The last scenarios time one cold static ``non-blocking`` query on the
scaling families, each in a fresh session under the design's structural
variable order (:mod:`repro.clocks.order`), assert that it holds and that
Definition 8 on the composition's reinforced graph interns no BDD node.
Every record carries the time the same query took before the structural
order, measured on a 2-vCPU host (Python 3.11.7), and the ROADMAP target
where there is one; ``arbiter_tree_6`` also carries its time and peak
nodes from before acyclicity ran on the plain graph's SCCs.

One gate counts instead of timing: the factor count and the kernel's
``apply`` calls of the clock algebra of a 128-stage derivative chain, whose
synchrony equalities collapse into one class.
Run with::

    PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/bench_clock_calculus.py
"""

import gc

import pytest
from _record import recorder, timed

from repro.api.session import AnalysisContext, Design
from repro.clocks.algebra import ClockAlgebra
from repro.clocks.disjunctive import to_disjunctive_form
from repro.clocks.hierarchy import build_hierarchy
from repro.clocks.inference import infer_timing_relations
from repro.gen.topologies import (
    arbiter_tree,
    chain_of_buffers,
    derivative_chain,
    independent_components,
    mode_automaton,
    pipeline_network,
)
from repro.lang.ast import ClockBinary, ClockFalse, ClockOf, ClockTrue
from repro.lang.normalize import normalize
from repro.properties.compilable import ProcessAnalysis
from repro.properties.composition import check_weakly_hierarchic
from repro.sched.closure import is_acyclic
from repro.sched.graph import SchedulingGraph
from repro.sched.reinforce import reinforce
from repro.sched.serialize import sequential_schedule

RECORD = recorder("clock_calculus")


def test_buffer_clock_inference(benchmark, paper_processes):
    """E5: infer the buffer's clock relations (four equations in the paper)."""
    process = paper_processes["buffer"]
    relations = benchmark(infer_timing_relations, process)
    assert len(relations.clock_relations) >= 4
    _relations, seconds = timed(infer_timing_relations, process)
    RECORD.record("buffer clock inference", seconds=seconds)


def test_buffer_clock_classes(benchmark, paper_processes):
    """E5: the three clock equivalence classes of the buffer."""
    process = paper_processes["buffer"]
    relations = infer_timing_relations(process)

    def classify():
        algebra = ClockAlgebra(process, relations)
        master = algebra.entails_equal(ClockOf("buffer_s"), ClockOf("buffer_r"))
        x_class = algebra.entails_equal(ClockOf("x"), ClockTrue("buffer_t"))
        y_class = algebra.entails_equal(ClockOf("y"), ClockFalse("buffer_t"))
        deduced = algebra.entails_equal(
            ClockOf("buffer_r"), ClockBinary("or", ClockOf("x"), ClockOf("y"))
        )
        return master, x_class, y_class, deduced

    results = benchmark(classify)
    assert all(results)


def test_buffer_hierarchy_construction(benchmark, paper_processes):
    """E6: the buffer's hierarchy — a single root above [t]~x^ and [¬t]~y^."""
    process = paper_processes["buffer"]
    relations = infer_timing_relations(process)
    hierarchy = benchmark(build_hierarchy, process, relations)
    _hierarchy, seconds = timed(build_hierarchy, process, relations)
    RECORD.record("buffer hierarchy", seconds=seconds)
    assert hierarchy.is_hierarchic()
    assert hierarchy.same_class(ClockOf("x"), ClockTrue("buffer_t"))
    assert hierarchy.same_class(ClockOf("y"), ClockFalse("buffer_t"))


def test_buffer_disjunctive_form(benchmark, paper_processes):
    """E7: eliminate the symmetric difference introduced by ``current``."""
    process = paper_processes["buffer"]
    relations = infer_timing_relations(process)
    result = benchmark(to_disjunctive_form, process, relations)
    assert result.is_disjunctive()


def test_buffer_scheduling_graph(benchmark, paper_processes):
    """E8: reinforced scheduling graph, acyclicity and serialization."""
    process = paper_processes["buffer"]

    def schedule():
        analysis = ProcessAnalysis(process)
        graph = reinforce(analysis.scheduling_graph, analysis.disjunctive.relations)
        assert is_acyclic(graph)
        return sequential_schedule(graph, analysis.hierarchy)

    order = benchmark(schedule)
    assert len(order) == 2 * len(process.all_signals())


def test_full_analysis_pipeline_ltta(benchmark, paper_processes):
    """The complete pipeline on the largest process of the paper (the LTTA reader+bus+writer)."""

    def analyse():
        results = {}
        for key in ("ltta_writer", "ltta_bus_stage1", "ltta_bus_stage2", "ltta_reader"):
            analysis = ProcessAnalysis(paper_processes[key])
            results[key] = (analysis.is_compilable(), analysis.is_hierarchic())
        return results

    results = benchmark(analyse)
    assert all(compilable and hierarchic for compilable, hierarchic in results.values())


def _report_pipeline(components, composition):
    """Hierarchy and constraint report of one composition, in a fresh
    session whose kernel decisions record how many nodes each one built."""
    context = AnalysisContext()
    manager = context.manager
    built = []

    def checked(decision):
        def wrapper(*args):
            size = manager.size()
            result = decision(*args)
            built.append(manager.size() - size)
            return result

        return wrapper

    for name in ("leq", "intersects", "satisfy_one_and"):
        setattr(manager, name, checked(getattr(manager, name)))
    verdict = check_weakly_hierarchic(components, composition=composition, context=context)
    return context.hierarchy(composition), verdict.reported_constraints, built


def test_pipeline_8_hierarchy_and_constraint_report(benchmark):
    """Rule 2 and the Section 5.1 report on an 8-stage composition, node-free."""
    components, composition = pipeline_network(8)
    hierarchy, constraints, built = benchmark(_report_pipeline, components, composition)
    (_h, _c, _b), seconds = timed(_report_pipeline, components, composition)
    RECORD.record(
        "pipeline_8 hierarchy and constraint report",
        seconds=seconds,
        decisions=len(built),
        constraints=len(constraints),
    )
    assert hierarchy.root_count() == 8
    assert all(f"[c{index}] = [c{index + 1}]" in constraints for index in range(7))
    assert built and not any(built), "a kernel decision built a BDD node"



#: seconds of the same cold static query before the structural order, on
#: the same host: the median of three 5-run medians interleaved with runs of
#: the structural order, except arbiter_tree_5 (one 176 s run) and
#: arbiter_tree_6 (``None``: it ran out of memory under a 2.5 GB cap)
PARENT_SECONDS = {
    "arbiter_tree_4": 0.748,
    "arbiter_tree_5": 175.7,
    "arbiter_tree_6": None,
    "chain_of_buffers_10": 0.126,
    "chain_of_buffers_16": 0.381,
    "mode_automaton_8": 0.028,
    "mode_automaton_12": 0.540,
    "independent_components_16": 0.022,
}

#: ROADMAP targets ("one structural BDD variable order per design")
TARGETS = {"arbiter_tree_5": 1.0}

#: the same cold static query while Definition 8 still built a constrained
#: BDD for every scheduling edge, before the SCC pass on the plain graph, on
#: a 2-vCPU host (Python 3.11.7): two runs, 10.55 s and 12.07 s
BEFORE_PLAIN_SCC = {"arbiter_tree_6": {"seconds": 11.31, "peak_nodes": 902239}}

FAMILIES = {
    "arbiter_tree": arbiter_tree,
    "chain_of_buffers": chain_of_buffers,
    "mode_automaton": mode_automaton,
    "independent_components": independent_components,
}


@pytest.mark.parametrize("scenario", sorted(PARENT_SECONDS))
def test_static_non_blocking_scaling(scenario):
    """Static non-blocking (Theorem 1) on the scaling families: every one holds."""
    family, size = scenario.rsplit("_", 1)
    components, _composition = FAMILIES[family](int(size))
    design = Design(name=scenario, components=list(components))
    # collect the previous scenario's garbage first (arbiter_tree_6 leaves
    # about a million BDD nodes in reference cycles), so freeing it is not
    # charged to this scenario's time
    gc.collect()
    verdict, seconds = timed(design.verify, "non-blocking", "static")
    assert verdict.holds, f"{scenario}: static non-blocking should hold"
    manager = design.context.manager
    peak_nodes = manager.stats()["peak_nodes"]
    # Definition 8 on the composition's reinforced graph, which has no plain
    # cycle, is decided by the SCC pass alone
    size = manager.size()
    assert is_acyclic(design.analysis.reinforced_graph)
    assert manager.size() == size, f"{scenario}: acyclicity built a BDD node"
    extra = {"target_seconds": TARGETS[scenario]} if scenario in TARGETS else {}
    if scenario in BEFORE_PLAIN_SCC:
        before = BEFORE_PLAIN_SCC[scenario]
        extra.update(
            before_plain_scc_seconds=before["seconds"],
            before_plain_scc_peak_nodes=before["peak_nodes"],
        )
    RECORD.record(
        f"{scenario} static non-blocking",
        seconds=seconds,
        parent_seconds=PARENT_SECONDS[scenario],
        peak_nodes=peak_nodes,
        **extra,
    )


#: the clock algebra of ``derivative_chain(128)`` (387 clock relations, 386
#: of them ``x^ = y^``) while every synchrony equality was one more conjunct
#: of the relation: its factor count, the kernel's ``apply`` calls and the
#: nodes interned building it
BEFORE_SYNCHRONY_CLASSES = {"factors": 1, "apply_calls": 774, "nodes": 67984}
#: the same counts over synchrony classes, which the gate allows to double
WITH_SYNCHRONY_CLASSES = {"factors": 1, "apply_calls": 2}


def test_derivative_chain_clock_algebra_counts():
    """Counted, not timed: the clock algebra of a 128-stage derivative chain.

    Its equalities form one synchrony class, so the relation is the single
    conjunct left over.  Operation counts do not depend on the host's load;
    before synchrony classes the same build took 774 ``apply`` calls.
    """
    process = normalize(derivative_chain(128))
    relations = infer_timing_relations(process)
    algebra = ClockAlgebra(process, relations)
    counts = {
        "factors": len(algebra._factors),
        "apply_calls": algebra.manager.stats()["apply_calls"],
    }
    RECORD.record(
        "deriv_128 clock algebra counts",
        relations=len(relations.clock_relations),
        nodes=algebra.manager.size(),
        before_synchrony_classes=BEFORE_SYNCHRONY_CLASSES,
        **counts,
    )
    for name, count in counts.items():
        assert count <= 2 * WITH_SYNCHRONY_CLASSES[name], (
            f"deriv_128 clock algebra: {count} {name} "
            f"(gate: 2 x {WITH_SYNCHRONY_CLASSES[name]})"
        )
