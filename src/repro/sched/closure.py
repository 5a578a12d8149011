"""Clock-labelled transitive closure and acyclicity (Definition 8).

The closure rules of Section 3.5 are:

* every edge ``a →c b`` starts a path ``a ⇒c b``;
* two paths ``a ⇒c b`` and ``a ⇒d b`` merge into ``a ⇒c∨d b``;
* two paths ``a ⇒c b`` and ``b ⇒d z`` chain into ``a ⇒c∧d z``.

A graph is acyclic iff every self-path ``a ⇒e a`` has an empty clock under
the timing relations (``R |= e = 0``).

A self-path only exists through a cycle of the plain (unlabelled) graph, so
the labels are consulted only where such a cycle exists: Tarjan's algorithm
finds the strongly connected components of the plain graph, the kernel's
non-constructive ``intersects`` drops the infeasible edges inside them, and
the labelled closure runs only inside the components that survive a second
Tarjan pass.  On a graph without plain cycles, such as every reinforced
graph of the committed corpus, Definition 8 builds no BDD node.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.bdd.bdd import BDD
from repro.clocks.relations import Node
from repro.sched.graph import Edge, SchedulingGraph


def _strongly_connected_components(nodes, successors) -> List[List[Node]]:
    """Tarjan's algorithm (iterative) over a successor map."""
    index_of: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Dict[Node, bool] = {}
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(successors.get(root, ())))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, iterator = work[-1]
            advanced = False
            for successor in iterator:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, iter(successors.get(successor, ()))))
                    advanced = True
                    break
                if on_stack.get(successor):
                    lowlink[node] = min(lowlink[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _cycles(edges: Sequence[Edge]) -> List[List[Edge]]:
    """The edges that lie on a cycle, grouped by strongly connected component.

    A group is the edges inside one component that has a cycle: two or more
    nodes, or one node with a self-loop.  Edges between components lie on
    no cycle and are dropped.
    """
    successors: Dict[Node, List[Node]] = {}
    for edge in edges:
        successors.setdefault(edge.source, []).append(edge.target)
    component_of: Dict[Node, int] = {}
    for position, component in enumerate(
        _strongly_connected_components(sorted(successors), successors)
    ):
        for node in component:
            component_of[node] = position
    groups: Dict[int, List[Edge]] = {}
    for edge in edges:
        position = component_of[edge.source]
        if component_of[edge.target] == position:
            groups.setdefault(position, []).append(edge)
    return [groups[position] for position in sorted(groups)]


def _self_paths(edges: Iterable[Tuple[Edge, BDD]]) -> Dict[Node, BDD]:
    """The labelled closure of ``edges``, restricted to its self-paths."""
    closure: Dict[Tuple[Node, Node], BDD] = {}
    members = set()
    for edge, label in edges:
        key = (edge.source, edge.target)
        closure[key] = closure[key] | label if key in closure else label
        members.update(key)
    ordered = sorted(members)
    for middle in ordered:
        for source in ordered:
            through = closure.get((source, middle))
            if through is None:
                continue
            for target in ordered:
                onward = closure.get((middle, target))
                if onward is None:
                    continue
                combined = through & onward
                if combined.is_false():
                    continue
                key = (source, target)
                closure[key] = closure[key] | combined if key in closure else combined
    return {node: closure[(node, node)] for node in ordered if (node, node) in closure}


def cyclic_nodes(graph: SchedulingGraph) -> List[Tuple[Node, BDD]]:
    """Nodes that lie on a cycle whose clock is not provably empty, each with
    the clock of its self-path conjoined with the relation factors it touches.

    Only edges on a cycle of the plain graph are tested for feasibility, and
    only edges on a cycle of the feasible ones are labelled: an edge is
    conjoined with its relation factors (``ClockAlgebra.constrained``) and
    those labels, closed under conjunction, are closed per component, so a
    self-path's label is satisfiable exactly when its clock can tick.
    """
    algebra = graph.algebra
    if not algebra.satisfiable():
        return []
    plain = [edge for group in _cycles(graph.edges()) for edge in group]
    feasible = [edge for edge in plain if algebra.feasible(edge.label)]
    offenders: List[Tuple[Node, BDD]] = []
    for group in _cycles(feasible):
        labelled = [(edge, algebra.constrained(edge.label)) for edge in group]
        # the closure keeps no empty label, so every self-path it holds ticks
        for node, label in _self_paths(labelled).items():
            offenders.append((node, algebra.constrained(label)))
    return sorted(offenders, key=lambda offender: offender[0])


def is_acyclic(graph: SchedulingGraph) -> bool:
    """Definition 8: every cycle of the closure has an empty clock under R."""
    return not cyclic_nodes(graph)
