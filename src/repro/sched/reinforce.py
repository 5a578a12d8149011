"""Reinforcement of the scheduling graph (Section 3.5).

The calculation of clocks in disjunctive form induces scheduling constraints
of its own, which are added on top of the inferred data dependencies:

1. ``x^ →x^ x`` for every signal: a value cannot be computed before its clock;
2. if ``R |= x^ = [y]`` or ``R |= x^ = [¬y]``, then ``y →y^ x^``: a sampled
   clock cannot be computed before the sampling value;
3. if ``R |= x^ = y^ f z^`` (``f ∈ {∨, ∧, \\}``), then ``y^ →y^ x^`` and
   ``z^ →z^ x^``: a composite clock needs its operand clocks first.
"""

from __future__ import annotations

from typing import Optional

from repro.clocks.relations import TimingRelations, clock_node, signal_node
from repro.lang.ast import (
    ClockBinary,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
)
from repro.lang.normalize import NormalizedProcess
from repro.sched.graph import SchedulingGraph


def _clock_operand_dependencies(
    graph: SchedulingGraph, target: str, expression: ClockExpressionSyntax
) -> None:
    """Add dependencies from the operands of a clock definition to the clock."""
    if isinstance(expression, ClockOf):
        graph.add_edge(clock_node(expression.name), clock_node(target), ClockOf(expression.name))
    elif isinstance(expression, (ClockTrue, ClockFalse)):
        graph.add_edge(signal_node(expression.name), clock_node(target), ClockOf(expression.name))
    elif isinstance(expression, ClockBinary):
        _clock_operand_dependencies(graph, target, expression.left)
        _clock_operand_dependencies(graph, target, expression.right)


def reinforce(
    graph: SchedulingGraph,
    relations: TimingRelations,
    process: Optional[NormalizedProcess] = None,
) -> SchedulingGraph:
    """Return a reinforced copy of the scheduling graph."""
    process = process or graph.process
    reinforced = graph.copy()

    # rule 1: the clock of a signal precedes its value
    for name in process.all_signals():
        reinforced.add_edge(clock_node(name), signal_node(name), ClockOf(name))

    # rules 2 and 3: clock definitions order the calculation of clocks
    for relation in relations.clock_relations:
        if not isinstance(relation.left, ClockOf):
            continue
        target = relation.left.name
        right = relation.right
        if isinstance(right, (ClockTrue, ClockFalse, ClockBinary)):
            _clock_operand_dependencies(reinforced, target, right)
        elif isinstance(right, ClockOf):
            # synchronous signals: either clock determines the other; no
            # additional scheduling constraint is required.
            continue
    return reinforced
