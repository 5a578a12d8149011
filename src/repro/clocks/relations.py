"""Timing relations: clock equations and scheduling relations.

Section 3.1 of the paper introduces two kinds of relations between signals
and clocks:

* clock relations ``c = e``: the clock ``c`` is present exactly when the
  clock expression ``e`` holds;
* scheduling relations ``a →c b``: when the clock ``c`` is present, the node
  ``b`` (a signal value or a clock) cannot be computed before the node ``a``.

Both are collected in :class:`TimingRelations`, the object produced by the
inference system and consumed by the hierarchy, the disjunctive-form pass,
the scheduling graph and the compilation criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from repro.clocks.expressions import format_clock_expression
from repro.lang.ast import ClockExpressionSyntax


# A node of the scheduling graph: either the value of a signal or its clock.
Node = Tuple[str, str]  # (kind, signal) with kind in {"sig", "clk"}


def signal_node(name: str) -> Node:
    """The node standing for the *value* of signal ``name``."""
    return ("sig", name)


def clock_node(name: str) -> Node:
    """The node standing for the *clock* of signal ``name``."""
    return ("clk", name)


def format_node(node: Node) -> str:
    kind, name = node
    return f"{name}^" if kind == "clk" else name


@dataclass(frozen=True)
class ClockRelation:
    """A clock equation ``left = right`` between two clock expressions."""

    left: ClockExpressionSyntax
    right: ClockExpressionSyntax

    def signals(self) -> Set[str]:
        return set(self.left.free_signals()) | set(self.right.free_signals())

    def __str__(self) -> str:
        return f"{format_clock_expression(self.left)} = {format_clock_expression(self.right)}"


@dataclass(frozen=True)
class SchedulingRelation:
    """A scheduling relation ``source →clock target``."""

    source: Node
    target: Node
    clock: ClockExpressionSyntax

    def signals(self) -> Set[str]:
        return {self.source[1], self.target[1]} | set(self.clock.free_signals())

    def __str__(self) -> str:
        return (
            f"{format_node(self.source)} --[{format_clock_expression(self.clock)}]--> "
            f"{format_node(self.target)}"
        )


@dataclass
class TimingRelations:
    """The timing relations ``R`` of a process: clock and scheduling relations."""

    clock_relations: List[ClockRelation] = field(default_factory=list)
    scheduling_relations: List[SchedulingRelation] = field(default_factory=list)
    hidden_signals: Set[str] = field(default_factory=set)

    # -- construction -------------------------------------------------------
    def add_clock_relation(self, left: ClockExpressionSyntax, right: ClockExpressionSyntax) -> None:
        self.clock_relations.append(ClockRelation(left, right))

    def add_scheduling_relation(
        self, source: Node, target: Node, clock: ClockExpressionSyntax
    ) -> None:
        self.scheduling_relations.append(SchedulingRelation(source, target, clock))

    def compose(self, other: "TimingRelations") -> "TimingRelations":
        """Composition ``R | S``: the union of the two relation sets."""
        return TimingRelations(
            clock_relations=list(self.clock_relations) + list(other.clock_relations),
            scheduling_relations=list(self.scheduling_relations)
            + list(other.scheduling_relations),
            hidden_signals=set(self.hidden_signals) | set(other.hidden_signals),
        )

    def hide(self, names: Iterable[str]) -> "TimingRelations":
        """Restriction ``R / x``: mark signals as hidden (existentially quantified)."""
        return TimingRelations(
            clock_relations=list(self.clock_relations),
            scheduling_relations=list(self.scheduling_relations),
            hidden_signals=set(self.hidden_signals) | set(names),
        )

    # -- queries --------------------------------------------------------------
    def signals(self) -> Set[str]:
        names: Set[str] = set()
        for relation in self.clock_relations:
            names |= relation.signals()
        for relation in self.scheduling_relations:
            names |= relation.signals()
        return names

    def __str__(self) -> str:
        lines = ["clock relations:"]
        lines.extend(f"  {relation}" for relation in self.clock_relations)
        lines.append("scheduling relations:")
        lines.extend(f"  {relation}" for relation in self.scheduling_relations)
        if self.hidden_signals:
            lines.append(f"hidden: {', '.join(sorted(self.hidden_signals))}")
        return "\n".join(lines)
