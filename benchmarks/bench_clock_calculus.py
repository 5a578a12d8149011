"""E5 / E6 / E7 / E8 — the clock calculus on the buffer, regenerated and timed.

Each benchmark re-runs one stage of the Polychrony pipeline on the paper's
buffer and re-asserts the facts the paper derives from it: the clock
relations and classes of Section 3.2, the hierarchy of Section 3.3, the
disjunctive form of Section 3.4 and the scheduling graph of Section 3.5.
A last scenario scales the hierarchy and the Section 5.1 constraint report
to the ``pipeline_network(8)`` composition and checks that every
entailment and feasibility query is decided without interning a BDD node.
"""

from _record import recorder, timed

from repro.api.session import AnalysisContext
from repro.clocks.algebra import ClockAlgebra
from repro.clocks.disjunctive import to_disjunctive_form
from repro.clocks.hierarchy import build_hierarchy
from repro.clocks.inference import infer_timing_relations
from repro.gen.topologies import pipeline_network

RECORD = recorder("clock_calculus")
from repro.lang.ast import ClockBinary, ClockFalse, ClockOf, ClockTrue
from repro.properties.compilable import ProcessAnalysis
from repro.properties.composition import check_weakly_hierarchic
from repro.sched.closure import is_acyclic
from repro.sched.graph import SchedulingGraph
from repro.sched.reinforce import reinforce
from repro.sched.serialize import sequential_schedule


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

