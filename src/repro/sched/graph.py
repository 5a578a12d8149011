"""The clock-labelled scheduling graph.

Nodes are either signal values (``("sig", x)``) or signal clocks
(``("clk", x)``); an edge ``a →c b`` states that, at the instants of clock
``c``, the computation of ``b`` cannot be scheduled before that of ``a``.
Edge labels are kept both as clock expressions (for display) and as BDDs (for
the closure and acyclicity computations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.bdd.bdd import BDD
from repro.clocks.algebra import ClockAlgebra
from repro.clocks.expressions import format_clock_expression
from repro.clocks.relations import Node, TimingRelations, format_node
from repro.lang.ast import ClockExpressionSyntax
from repro.lang.normalize import NormalizedProcess


@dataclass
class Edge:
    """One scheduling edge ``source →clock target``."""

    source: Node
    target: Node
    clock: ClockExpressionSyntax
    label: BDD

    def __str__(self) -> str:
        return (
            f"{format_node(self.source)} --[{format_clock_expression(self.clock)}]--> "
            f"{format_node(self.target)}"
        )


class SchedulingGraph:
    """A directed multigraph of scheduling constraints with clock labels."""

    def __init__(self, process: NormalizedProcess, algebra: ClockAlgebra):
        self.process = process
        self.algebra = algebra
        self._edges: Dict[Tuple[Node, Node], Edge] = {}
        self._nodes: Set[Node] = set()

    # -- construction -----------------------------------------------------------
    def add_node(self, node: Node) -> None:
        self._nodes.add(node)

    def add_edge(self, source: Node, target: Node, clock: ClockExpressionSyntax) -> None:
        """Add (or widen, by disjunction) an edge from ``source`` to ``target``."""
        label = self.algebra.encode(clock)
        self.add_edge_bdd(source, target, clock, label)

    def add_edge_bdd(
        self, source: Node, target: Node, clock: ClockExpressionSyntax, label: BDD
    ) -> None:
        self._nodes.add(source)
        self._nodes.add(target)
        key = (source, target)
        existing = self._edges.get(key)
        if existing is None:
            self._edges[key] = Edge(source, target, clock, label)
        else:
            self._edges[key] = Edge(source, target, existing.clock, existing.label | label)

    @classmethod
    def from_relations(
        cls,
        process: NormalizedProcess,
        relations: TimingRelations,
        algebra: Optional[ClockAlgebra] = None,
    ) -> "SchedulingGraph":
        """Build the initial graph from inferred scheduling relations."""
        if algebra is None:
            algebra = ClockAlgebra(process, relations)
        graph = cls(process, algebra)
        for relation in relations.scheduling_relations:
            graph.add_edge(relation.source, relation.target, relation.clock)
        for name in process.all_signals():
            graph.add_node(("sig", name))
            graph.add_node(("clk", name))
        return graph

    # -- queries -----------------------------------------------------------------
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(sorted(self._nodes))

    def edges(self) -> Tuple[Edge, ...]:
        return tuple(self._edges[key] for key in sorted(self._edges))

    def edge(self, source: Node, target: Node) -> Optional[Edge]:
        return self._edges.get((source, target))

    def edge_count(self) -> int:
        return len(self._edges)

    def copy(self) -> "SchedulingGraph":
        clone = SchedulingGraph(self.process, self.algebra)
        clone._nodes = set(self._nodes)
        clone._edges = dict(self._edges)
        return clone

    def effective_edges(self) -> Tuple[Edge, ...]:
        """Edges whose label is not provably empty under the timing relations."""
        return tuple(
            edge for edge in self.edges() if self.algebra.feasible(edge.label)
        )

    def describe(self) -> str:
        lines = [f"scheduling graph of {self.process.name}:"]
        lines.extend(f"  {edge}" for edge in self.edges())
        return "\n".join(lines)
