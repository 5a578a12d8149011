"""Disjunctive form: eliminating symmetric differences (Section 3.4).

A timing relation is in *disjunctive form* when no clock is expressed with a
symmetric difference ``c \\ d``; such differences denote the *absence* of an
event, which generated code cannot test directly.  The elimination replaces
``c \\ d`` by a positively testable clock, typically ``c ∧ [x]`` or
``c ∧ [¬x]`` for some boolean signal ``x`` whose value encodes, at clock
``c``, whether ``d`` ticks — exactly what happens for the buffer's ``current``
process where ``r^ \\ y^`` becomes ``[t]``.

A process whose hierarchy is well-formed and whose relations admit a
disjunctive form is *well-clocked* (Definition 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.clocks.algebra import ClockAlgebra
from repro.clocks.expressions import format_clock_expression, simplify_clock
from repro.clocks.hierarchy import ClockHierarchy
from repro.clocks.relations import ClockRelation, SchedulingRelation, TimingRelations
from repro.lang.ast import (
    ClockBinary,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockTrue,
)
from repro.lang.normalize import NormalizedProcess


@dataclass
class DifferenceRewrite:
    """The record of one eliminated (or stuck) symmetric difference."""

    original: ClockExpressionSyntax
    replacement: Optional[ClockExpressionSyntax]

    def eliminated(self) -> bool:
        return self.replacement is not None

    def __str__(self) -> str:
        if self.replacement is None:
            return f"{format_clock_expression(self.original)}  (no disjunctive form)"
        return (
            f"{format_clock_expression(self.original)}  ->  "
            f"{format_clock_expression(self.replacement)}"
        )


@dataclass
class DisjunctiveFormResult:
    """Outcome of the disjunctive-form pass."""

    relations: TimingRelations
    rewrites: List[DifferenceRewrite] = field(default_factory=list)

    def is_disjunctive(self) -> bool:
        """True iff every symmetric difference was eliminated."""
        return all(rewrite.eliminated() for rewrite in self.rewrites)

    def remaining_differences(self) -> List[ClockExpressionSyntax]:
        return [rewrite.original for rewrite in self.rewrites if not rewrite.eliminated()]


def _candidate_literals(process: NormalizedProcess) -> List[ClockExpressionSyntax]:
    """The sampled clocks ``[x]`` / ``[¬x]`` usable in a disjunctive rewriting."""
    literals: List[ClockExpressionSyntax] = []
    for name in process.boolean_signals():
        literals.append(ClockTrue(name))
        literals.append(ClockFalse(name))
    return literals


def _rewrite_expression(
    expression: ClockExpressionSyntax,
    algebra: ClockAlgebra,
    literals: List[ClockExpressionSyntax],
    rewrites: List[DifferenceRewrite],
) -> ClockExpressionSyntax:
    """Rewrite every difference sub-expression that admits a disjunctive form."""
    if isinstance(expression, ClockBinary):
        left = _rewrite_expression(expression.left, algebra, literals, rewrites)
        right = _rewrite_expression(expression.right, algebra, literals, rewrites)
        rebuilt = ClockBinary(expression.operator, left, right)
        if expression.operator != "diff":
            return rebuilt
        # Try to replace  left \ right  by a positively testable clock.
        if algebra.is_empty_clock(rebuilt):
            replacement: Optional[ClockExpressionSyntax] = ClockEmpty()
        elif algebra.entails_equal(rebuilt, left):
            replacement = left
        else:
            replacement = None
            for literal in literals:
                candidate = simplify_clock(ClockBinary("and", left, literal))
                if algebra.entails_equal(rebuilt, candidate):
                    replacement = candidate
                    break
                if algebra.entails_equal(rebuilt, literal):
                    replacement = literal
                    break
        rewrites.append(DifferenceRewrite(original=rebuilt, replacement=replacement))
        return replacement if replacement is not None else rebuilt
    return expression


def to_disjunctive_form(
    process: NormalizedProcess,
    relations: TimingRelations,
    algebra: Optional[ClockAlgebra] = None,
) -> DisjunctiveFormResult:
    """Rewrite the timing relations so that no clock uses a symmetric difference.

    Differences that cannot be eliminated are reported (the process is then
    not well-clocked); the relations returned keep the original expression in
    that case so that later passes still see a sound (if not disjunctive)
    relation set.
    """
    if algebra is None:
        algebra = ClockAlgebra(process, relations)
    literals = _candidate_literals(process)
    rewrites: List[DifferenceRewrite] = []

    new_clock_relations: List[ClockRelation] = []
    for relation in relations.clock_relations:
        new_clock_relations.append(
            ClockRelation(
                _rewrite_expression(relation.left, algebra, literals, rewrites),
                _rewrite_expression(relation.right, algebra, literals, rewrites),
            )
        )
    new_scheduling_relations: List[SchedulingRelation] = []
    for relation in relations.scheduling_relations:
        new_scheduling_relations.append(
            SchedulingRelation(
                relation.source,
                relation.target,
                _rewrite_expression(relation.clock, algebra, literals, rewrites),
            )
        )
    rewritten = TimingRelations(
        clock_relations=new_clock_relations,
        scheduling_relations=new_scheduling_relations,
        hidden_signals=set(relations.hidden_signals),
    )
    return DisjunctiveFormResult(relations=rewritten, rewrites=rewrites)


def is_well_clocked(
    process: NormalizedProcess,
    relations: Optional[TimingRelations] = None,
    hierarchy: Optional[ClockHierarchy] = None,
) -> bool:
    """Definition 7: the hierarchy is well-formed and the relations are disjunctive."""
    from repro.clocks.hierarchy import build_hierarchy
    from repro.clocks.inference import infer_timing_relations

    if relations is None:
        relations = infer_timing_relations(process)
    if hierarchy is None:
        hierarchy = build_hierarchy(process, relations)
    if not hierarchy.well_formed():
        return False
    result = to_disjunctive_form(process, relations, hierarchy.algebra)
    return result.is_disjunctive()
