"""Tests for the scheduling graph: construction, reinforcement, closure, serialization (E8)."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import Design
from repro.bdd.bdd import BDDManager
from repro.clocks.algebra import ClockAlgebra, presence_variable, value_variable
from repro.clocks.relations import TimingRelations, clock_node, signal_node
from repro.gen.corpus import Corpus
from repro.gen.topologies import chain_of_buffers
from repro.lang.ast import ClockBinary, ClockFalse, ClockOf, ClockTrue
from repro.lang.builder import ProcessBuilder, signal, when_false, when_true
from repro.lang.normalize import normalize
from repro.properties.compilable import ProcessAnalysis
from repro.sched.closure import cyclic_nodes, is_acyclic
from repro.sched.graph import SchedulingGraph
from repro.sched.reinforce import reinforce
from repro.sched.serialize import SerializationError, sequential_schedule


class TestGraphConstruction:
    def test_filter_graph_has_data_dependencies(self, filter_analysis):
        graph = filter_analysis.scheduling_graph
        edge = graph.edge(signal_node("y"), signal_node("_x_cond_1"))
        assert edge is not None
        assert graph.edge(signal_node("_x_cond_1"), signal_node("x")) is not None

    def test_parallel_edges_are_merged_by_disjunction(self, filter_analysis):
        graph = filter_analysis.scheduling_graph.copy()
        before = graph.edge_count()
        existing = graph.edges()[0]
        graph.add_edge(existing.source, existing.target, existing.clock)
        assert graph.edge_count() == before

    def test_effective_edges_drop_empty_clocks(self, buffer_analysis):
        graph = buffer_analysis.reinforced_graph
        assert len(graph.effective_edges()) <= graph.edge_count()


class TestReinforcement:
    def test_clock_precedes_value(self, buffer_analysis):
        """Rule 1: x^ →x^ x for every signal."""
        graph = buffer_analysis.reinforced_graph
        for name in buffer_analysis.process.all_signals():
            assert graph.edge(clock_node(name), signal_node(name)) is not None

    def test_sampling_value_feeds_clock(self, buffer_analysis):
        """Rule 2: y^ = [t] puts t (the value) before y^ — the paper's buffer figure."""
        graph = buffer_analysis.reinforced_graph
        assert graph.edge(signal_node("buffer_t"), clock_node("y")) is not None
        assert graph.edge(signal_node("buffer_t"), clock_node("x")) is not None

    def test_composite_clock_needs_operand_clocks(self):
        builder = ProcessBuilder("m", inputs=["y", "z"], outputs=["x"])
        builder.define("x", signal("y").default(signal("z")))
        analysis = ProcessAnalysis(normalize(builder.build()))
        graph = reinforce(analysis.scheduling_graph, analysis.relations)
        assert graph.edge(clock_node("y"), clock_node("x")) is not None
        assert graph.edge(clock_node("z"), clock_node("x")) is not None


class TestClosureAndAcyclicity:
    def test_buffer_is_acyclic(self, buffer_analysis):
        assert is_acyclic(buffer_analysis.reinforced_graph)
        assert cyclic_nodes(buffer_analysis.reinforced_graph) == []

    def test_feasible_cycle_is_detected(self):
        """x := y + 0 | y := x + 0 is an instantaneous dependency cycle."""
        builder = ProcessBuilder("loop", inputs=[], outputs=["x", "y"])
        builder.define("x", signal("y") + 0)
        builder.define("y", signal("x") + 0)
        analysis = ProcessAnalysis(normalize(builder.build()))
        assert not analysis.is_acyclic()
        offenders = cyclic_nodes(analysis.reinforced_graph)
        assert offenders

    def test_cycle_broken_by_delay_is_fine(self):
        """x := y + 0 | y := x pre 0 is fine: the delay breaks the cycle."""
        builder = ProcessBuilder("ok", inputs=[], outputs=["x", "y"])
        builder.define("x", signal("y") + 0)
        builder.define("y", signal("x").pre(0))
        analysis = ProcessAnalysis(normalize(builder.build()))
        assert analysis.is_acyclic()

    @staticmethod
    def _crossed_samplings(second_sampling):
        """x := (y when c) default a | y := (x when d) default b, with
        ``[d] = second_sampling``: a plain cycle x → y → x in both cases."""
        builder = ProcessBuilder("crossed", inputs=["c", "d", "a", "b"], outputs=["x", "y"])
        builder.define("x", signal("y").when(signal("c")).default(signal("a")))
        builder.define("y", signal("x").when(signal("d")).default(signal("b")))
        builder.constrain(when_true("d"), second_sampling)
        analysis = ProcessAnalysis(normalize(builder.build()))
        assert _has_plain_cycle(analysis.reinforced_graph)
        return analysis

    def test_cycle_with_exclusive_clocks_is_acyclic(self):
        """[d] = [¬c]: the arcs x → y (at [d]) and y → x (at [c]) never tick
        together, so the closure proves every self-path empty (Def. 8)."""
        analysis = self._crossed_samplings(when_false("c"))
        assert analysis.is_acyclic()
        assert cyclic_nodes(analysis.reinforced_graph) == []

    def test_cycle_with_overlapping_clocks_is_cyclic(self):
        """[d] = [c]: both arcs tick at [c], so the cycle is feasible."""
        analysis = self._crossed_samplings(when_true("c"))
        assert not analysis.is_acyclic()
        offenders = {node for node, _label in cyclic_nodes(analysis.reinforced_graph)}
        assert {signal_node("x"), signal_node("y"), clock_node("x"), clock_node("y")} <= offenders


def _has_plain_cycle(graph):
    """Whether some node reaches itself along the unlabelled edges."""
    successors = {}
    for edge in graph.edges():
        successors.setdefault(edge.source, set()).add(edge.target)
    for start in successors:
        seen, frontier = set(), list(successors[start])
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                frontier.extend(successors.get(node, ()))
    return False


def _reference_cyclic_nodes(graph):
    """Definition 8 the long way: every edge label conjoined with its
    relation factors and kept if satisfiable, a Floyd–Warshall closure over
    the whole graph, then every node whose self-path is satisfiable."""
    algebra = graph.algebra
    if not algebra.satisfiable():
        return set()
    closure = {}
    for edge in graph.edges():
        label = algebra.constrained(edge.label)
        if label.is_satisfiable():
            closure[(edge.source, edge.target)] = label
    nodes = graph.nodes()
    for middle in nodes:
        for source in nodes:
            through = closure.get((source, middle))
            if through is None:
                continue
            for target in nodes:
                onward = closure.get((middle, target))
                if onward is None:
                    continue
                key = (source, target)
                combined = through & onward
                closure[key] = closure[key] | combined if key in closure else combined
    return {
        node for node in nodes if (node, node) in closure and closure[(node, node)].is_satisfiable()
    }


SIGNALS = ("s0", "s1", "s2", "s3")
GRAPH_NODES = tuple(signal_node(f"n{index}") for index in range(5))


@st.composite
def clock_expressions(draw, signals, depth=2):
    name = draw(st.sampled_from(signals))
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from([ClockOf(name), ClockTrue(name), ClockFalse(name)]))
    operator = draw(st.sampled_from(["and", "or", "diff"]))
    return ClockBinary(
        operator,
        draw(clock_expressions(signals, depth - 1)),
        draw(clock_expressions(signals, depth - 1)),
    )


@st.composite
def labelled_graphs(draw):
    """A random clock-labelled graph over an algebra of 2–4 boolean signals."""
    signals = SIGNALS[: draw(st.integers(min_value=2, max_value=4))]
    builder = ProcessBuilder("random", inputs=list(signals), outputs=["o"])
    builder.define("o", signal(signals[0]))
    relations = TimingRelations()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        relations.add_clock_relation(
            draw(clock_expressions(signals)), draw(clock_expressions(signals))
        )
    manager = BDDManager(
        [variable for name in signals for variable in (presence_variable(name), value_variable(name))]
    )
    algebra = ClockAlgebra(normalize(builder.build()), relations, manager=manager)
    graph = SchedulingGraph(algebra.process, algebra)
    for node in GRAPH_NODES:
        graph.add_node(node)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        graph.add_edge(
            draw(st.sampled_from(GRAPH_NODES)),
            draw(st.sampled_from(GRAPH_NODES)),
            draw(clock_expressions(signals)),
        )
    return graph


class TestAcyclicityAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(labelled_graphs())
    def test_cyclic_nodes_match_the_full_closure(self, graph):
        expected = _reference_cyclic_nodes(graph)
        offenders = cyclic_nodes(graph)
        assert {node for node, _label in offenders} == expected
        assert len(offenders) == len(expected)
        assert all(label.is_satisfiable() for _node, label in offenders)
        assert is_acyclic(graph) == (not expected)

    @settings(max_examples=100, deadline=None)
    @given(labelled_graphs())
    def test_plain_acyclic_graph_builds_no_node(self, graph):
        if _has_plain_cycle(graph):
            return
        size = graph.algebra.manager.size()
        assert is_acyclic(graph)
        assert graph.algebra.manager.size() == size


COMMITTED_CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "corpus.json"


def _corpus_design(index):
    return Corpus.load(COMMITTED_CORPUS).entries[index].regenerate().design()


PLAIN_ACYCLIC_DESIGNS = {
    **{f"corpus_{index}": lambda index=index: _corpus_design(index) for index in (0, 15, 30, 45)},
    "chain_of_buffers_8": lambda: Design(
        name="chain_of_buffers_8", components=list(chain_of_buffers(8)[0])
    ),
}


@pytest.mark.parametrize("scenario", sorted(PLAIN_ACYCLIC_DESIGNS))
def test_acyclicity_of_a_plain_acyclic_composition_builds_no_node(scenario):
    """Definition 8 on a reinforced graph without plain cycles is decided by
    the SCC pass alone: not one BDD node is interned."""
    design = PLAIN_ACYCLIC_DESIGNS[scenario]()
    graph = design.analysis.reinforced_graph
    assert not _has_plain_cycle(graph)
    manager = design.context.manager
    size = manager.size()
    assert is_acyclic(graph)
    assert manager.size() == size


class TestSerialization:
    def test_schedule_respects_feasible_edges(self, buffer_analysis):
        graph = buffer_analysis.reinforced_graph
        order = sequential_schedule(graph, buffer_analysis.hierarchy)
        positions = {node: index for index, node in enumerate(order)}
        relation = graph.algebra.relation_bdd
        for edge in graph.edges():
            if (relation & edge.label).is_satisfiable() and edge.source != edge.target:
                assert positions[edge.source] < positions[edge.target]

    def test_schedule_covers_all_nodes(self, filter_analysis):
        graph = filter_analysis.reinforced_graph
        order = sequential_schedule(graph, filter_analysis.hierarchy)
        assert set(order) == set(graph.nodes())

    def test_serialization_error_on_feasible_cycle(self):
        builder = ProcessBuilder("loop", inputs=[], outputs=["x", "y"])
        builder.define("x", signal("y") + 0)
        builder.define("y", signal("x") + 0)
        analysis = ProcessAnalysis(normalize(builder.build()))
        with pytest.raises(SerializationError):
            sequential_schedule(analysis.reinforced_graph, analysis.hierarchy)

    def test_clock_nodes_come_before_their_value_nodes(self, buffer_analysis):
        order = sequential_schedule(buffer_analysis.reinforced_graph, buffer_analysis.hierarchy)
        positions = {node: index for index, node in enumerate(order)}
        for name in buffer_analysis.process.all_signals():
            assert positions[clock_node(name)] < positions[signal_node(name)]
