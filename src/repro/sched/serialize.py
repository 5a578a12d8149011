"""Serialization of the scheduling graph (Definition 9).

Sequential code generation needs a total order of the computations of one
instant that refines the scheduling graph.  Definition 9 asks the chosen
reinforcement to preserve composability: any environment graph that keeps the
original graph acyclic must keep the serialized graph acyclic too.

The serialization below is a topological sort (Kahn's algorithm) of the
feasible edges that takes, among the ready nodes, the first under a
deterministic, hierarchy-aware key (shallower clock classes, clocks before
values, inputs before defined signals, then names).  The order it adds
between unrelated nodes is the key's alone: it does not check Definition 9.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.clocks.hierarchy import ClockHierarchy
from repro.clocks.relations import Node
from repro.sched.graph import SchedulingGraph


class SerializationError(Exception):
    """Raised when the scheduling graph cannot be serialized (feasible cycle)."""


def _tie_break_keys(
    nodes: Sequence[Node], graph: SchedulingGraph, hierarchy: Optional[ClockHierarchy]
) -> Dict[Node, Tuple]:
    """Each node's tie-break key: the depth of its signal's clock class in the
    hierarchy, clocks before values, inputs before defined signals, name."""
    defined = {equation.defined_signal() for equation in graph.process.equations}
    parents = hierarchy.parent_map() if hierarchy is not None else {}
    depths: Dict[str, int] = {}
    for _kind, name in nodes:
        clock_class = hierarchy.class_of_signal(name) if hierarchy is not None else None
        index, depth = (None if clock_class is None else clock_class.index), 0
        while parents.get(index) is not None:
            depth += 1
            index = parents[index]
        depths[name] = depth
    return {
        node: (depths[node[1]], node[0] != "clk", node[1] in defined, node[1])
        for node in nodes
    }


def sequential_schedule(
    graph: SchedulingGraph,
    hierarchy: Optional[ClockHierarchy] = None,
    nodes: Optional[Sequence[Node]] = None,
) -> List[Node]:
    """A total order of the graph nodes compatible with every feasible edge.

    Edges whose clock label is provably empty under the timing relations are
    ignored (they can never constrain an actual instant), and so are
    self-loops.  Raises :class:`SerializationError` when a feasible cycle
    remains.
    """
    wanted = list(nodes) if nodes is not None else list(graph.nodes())
    successors: Dict[Node, Set[Node]] = {node: set() for node in wanted}
    indegree: Dict[Node, int] = {node: 0 for node in wanted}
    for edge in graph.effective_edges():
        if edge.source == edge.target or edge.source not in successors:
            continue
        if edge.target in indegree:
            successors[edge.source].add(edge.target)
            indegree[edge.target] += 1

    keys = _tie_break_keys(wanted, graph, hierarchy)
    ready = [(keys[node], node) for node in wanted if indegree[node] == 0]
    heapq.heapify(ready)
    order: List[Node] = []
    while ready:
        _key, node = heapq.heappop(ready)
        order.append(node)
        for successor in successors[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, (keys[successor], successor))
    if len(order) != len(wanted):
        remaining = sorted(set(wanted) - set(order))
        raise SerializationError(
            f"scheduling graph has a feasible cycle through {remaining[:6]}"
        )
    return order
