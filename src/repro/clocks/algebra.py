"""The boolean algebra of clocks, decided with BDDs.

Section 3.2 interprets timing relations in a boolean algebra: composition is
conjunction, restriction is existential quantification, and ``R |= S`` means
that ``S`` holds in every instant allowed by ``R``.  The encoding used here
assigns to every signal ``x`` a *presence* variable ``p·x`` and, when ``x``
is boolean, a *value* variable ``v·x``:

* ``x^``   ↦  ``p·x``
* ``[x]``  ↦  ``p·x ∧ v·x``
* ``[¬x]`` ↦  ``p·x ∧ ¬v·x``

so that the axioms ``x^ = [x] ∨ [¬x]`` and ``[x] ∧ [¬x] = 0`` hold by
construction.  The timing relations of a process compile to one BDD; every
entailment question of the analyses (clock equivalence, emptiness,
inclusion, constraint detection) is then a BDD inclusion test, decided by
the kernel's non-constructive ``leq`` / ``intersects`` without building the
implication or the conjunction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bdd.bdd import BDD, BDDManager
from repro.clocks.relations import ClockRelation, TimingRelations
from repro.lang.ast import (
    ClockBinary,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
)
from repro.lang.normalize import NormalizedProcess


def presence_variable(name: str) -> str:
    """The BDD variable standing for the presence of signal ``name``."""
    return f"p·{name}"


def value_variable(name: str) -> str:
    """The BDD variable standing for the boolean value of signal ``name``."""
    return f"v·{name}"


class ClockAlgebra:
    """Decision procedures over the timing relations of one (composed) process."""

    def __init__(
        self,
        process: NormalizedProcess,
        relations: TimingRelations,
        manager: Optional[BDDManager] = None,
    ):
        self.process = process
        self.relations = relations
        self.manager = manager or BDDManager()
        self._signals: Tuple[str, ...] = process.all_signals()
        self._boolean_signals: Set[str] = set(process.boolean_signals())
        # Declare variables in a deterministic order.  The presence and value
        # variables of one signal are kept adjacent: clock constraints such as
        # ``x^ = y^ ∧ [z]`` relate a signal's presence to another signal's
        # presence *and value*, so interleaving the two families keeps the
        # relation BDD small (placing all presences before all values makes it
        # blow up on larger compositions).
        for name in self._signals:
            self.manager.declare(presence_variable(name))
            if name in self._boolean_signals:
                self.manager.declare(value_variable(name))
        self._relation_bdd: Optional[BDD] = None
        self._factors = self._compile_relations()

    # -- encoding --------------------------------------------------------------
    def encode(self, expression: ClockExpressionSyntax) -> BDD:
        """Compile a clock expression into its BDD."""
        if isinstance(expression, ClockEmpty):
            return self.manager.false
        if isinstance(expression, ClockOf):
            return self.manager.var(presence_variable(expression.name))
        if isinstance(expression, ClockTrue):
            return self.manager.var(presence_variable(expression.name)) & self.manager.var(
                value_variable(expression.name)
            )
        if isinstance(expression, ClockFalse):
            return self.manager.var(presence_variable(expression.name)) & ~self.manager.var(
                value_variable(expression.name)
            )
        if isinstance(expression, ClockBinary):
            left = self.encode(expression.left)
            right = self.encode(expression.right)
            if expression.operator == "and":
                return left & right
            if expression.operator == "or":
                return left | right
            if expression.operator == "diff":
                return left & ~right
        raise TypeError(f"unsupported clock expression: {expression!r}")

    def _compile_relations(self) -> List[BDD]:
        """Compile the clock relations into variable-disjoint *factors*.

        The relation of a composed process is a conjunction whose conjuncts
        touch variable sets that barely overlap — in the limit of
        independent components, not at all.  Grouping the conjuncts into
        connected components by shared variables (union-find) turns ``R``
        into ``F_1 ∧ ... ∧ F_m`` with pairwise-disjoint supports, the
        algebraic shadow of the paper's compositional structure.  Every
        entailment query then consults only the factors its clocks touch:
        for variable-disjoint ``R = G ∧ H`` with ``vars(H) ∩ vars(c) = ∅``,
        ``R ⊨ c`` iff ``R`` is unsatisfiable or ``G ⊨ c`` — so the analyses
        of an N-component composition stop paying for the other N−1
        components on every BDD query.
        """
        factors: List[BDD] = []
        factor_of: Dict[str, int] = {}
        for relation in self.relations.clock_relations:
            conjunct = self.encode(relation.left).iff(self.encode(relation.right))
            support = conjunct.support()
            touched = sorted({factor_of[v] for v in support if v in factor_of})
            merged = conjunct
            for position in touched:
                merged = merged & factors[position]
                factors[position] = None  # type: ignore[call-overload]
            factors.append(merged)
            target = len(factors) - 1
            for variable, position in list(factor_of.items()):
                if position in touched:
                    factor_of[variable] = target
            for variable in support:
                factor_of[variable] = target
        kept: List[BDD] = []
        renumber: Dict[int, int] = {}
        for position, factor in enumerate(factors):
            if factor is not None:
                renumber[position] = len(kept)
                kept.append(factor)
        self._factor_of = {
            variable: renumber[position] for variable, position in factor_of.items()
        }
        self._combined: Dict[frozenset, BDD] = {}
        self._unsatisfiable = any(not factor.is_satisfiable() for factor in kept)
        return kept

    @property
    def relation_bdd(self) -> BDD:
        """The BDD of the conjunction of all clock relations (built lazily —
        the entailment queries work factor-wise and rarely need it)."""
        if self._relation_bdd is None:
            conjunction = self.manager.true
            for factor in self._factors:
                conjunction = conjunction & factor
            self._relation_bdd = conjunction
        return self._relation_bdd

    def _relevant_relation(self, support: Iterable[str]) -> BDD:
        """The conjunction of the factors whose variables ``support`` touches."""
        positions = frozenset(
            self._factor_of[variable]
            for variable in support
            if variable in self._factor_of
        )
        if not positions:
            return self.manager.true
        if len(positions) == 1:
            return self._factors[next(iter(positions))]
        cached = self._combined.get(positions)
        if cached is None:
            cached = self.manager.true
            for position in sorted(positions):
                cached = cached & self._factors[position]
            self._combined[positions] = cached
        return cached

    # -- entailment queries --------------------------------------------------
    def satisfiable(self) -> bool:
        """True iff the timing relations admit at least one instant."""
        return not self._unsatisfiable

    def entails(self, constraint: BDD) -> bool:
        """``R |= constraint``: the constraint holds in every instant allowed by R."""
        if self._unsatisfiable:
            return True
        return self.manager.leq(self._relevant_relation(constraint.support()), constraint)

    def feasible(self, constraint: BDD) -> bool:
        """``R ∧ constraint`` is satisfiable: the constraint can tick at all."""
        if self._unsatisfiable:
            return False
        return self.manager.intersects(self._relevant_relation(constraint.support()), constraint)

    def constrained(self, constraint: BDD) -> BDD:
        """``constraint`` conjoined with exactly the factors it touches.

        Equi-satisfiable with ``R ∧ constraint`` whenever ``R`` is
        satisfiable (the untouched factors are variable-disjoint), and
        closed under conjunction: conjoining two constrained labels yields
        a constrained label of their conjunction — which is what lets the
        scheduling closure propagate feasibility component-locally.
        """
        return self._relevant_relation(constraint.support()) & constraint

    def entails_equal(self, left: ClockExpressionSyntax, right: ClockExpressionSyntax) -> bool:
        """``R |= left = right``."""
        return self.entails(self.encode(left).iff(self.encode(right)))

    def entails_subclock(self, left: ClockExpressionSyntax, right: ClockExpressionSyntax) -> bool:
        """``R |= left ⊆ right``: whenever ``left`` ticks, ``right`` ticks."""
        return self.entails(self.encode(left).implies(self.encode(right)))

    def is_empty_clock(self, expression: ClockExpressionSyntax) -> bool:
        """``R |= expression = 0``."""
        return self.entails(~self.encode(expression))

    def is_exclusive(self, left: ClockExpressionSyntax, right: ClockExpressionSyntax) -> bool:
        """``R |= left ∧ right = 0``: the two clocks never tick together."""
        return self.entails(~(self.encode(left) & self.encode(right)))
