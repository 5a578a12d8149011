"""The clock hierarchy of Definition 5 and its well-formedness (Definition 6).

The hierarchy is a partial order ``≽`` ("determines") over clock equivalence
classes:

1. for every boolean signal ``x``, ``x^ ≽ [x]`` and ``x^ ≽ [¬x]``;
2. clocks provably equal under the timing relations belong to the same class;
3. when a clock ``b1`` is defined by ``c1 f c2`` and some class ``b2``
   dominates both ``c1`` and ``c2``, then ``b2 ≽ b1``.

A process whose hierarchy has a single root is *hierarchic*; a compilable
hierarchic process is endochronous (Property 2).  The roots of a
multi-rooted hierarchy identify the independent sources of concurrency used
by the compositional criterion of Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.clocks.algebra import ClockAlgebra
from repro.clocks.expressions import clock_key, format_clock_expression
from repro.clocks.relations import TimingRelations
from repro.lang.ast import (
    ClockBinary,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
)
from repro.lang.normalize import NormalizedProcess

ClockKey = Tuple


@dataclass
class ClockClass:
    """An equivalence class of clocks (clocks provably equal under R)."""

    index: int
    members: List[ClockExpressionSyntax] = field(default_factory=list)

    def representative(self) -> ClockExpressionSyntax:
        # Prefer a signal clock as representative, then a sampled clock.
        for member in self.members:
            if isinstance(member, ClockOf):
                return member
        return self.members[0]

    def signal_clocks(self) -> List[str]:
        return sorted(member.name for member in self.members if isinstance(member, ClockOf))

    def describe(self) -> str:
        return " ~ ".join(sorted(format_clock_expression(member) for member in self.members))


class ClockHierarchy:
    """The computed hierarchy: classes, dominance order, roots and trees."""

    def __init__(
        self,
        process: NormalizedProcess,
        algebra: ClockAlgebra,
        classes: List[ClockClass],
        dominance: Set[Tuple[int, int]],
    ):
        self.process = process
        self.algebra = algebra
        self.classes = classes
        #: pairs (above, below): class ``above`` determines class ``below``
        self.dominance = dominance
        self._class_of_key: Dict[ClockKey, int] = {}
        for clock_class in classes:
            for member in clock_class.members:
                self._class_of_key[clock_key(member)] = clock_class.index

    # -- basic queries -----------------------------------------------------------
    def class_of(self, expression: ClockExpressionSyntax) -> Optional[ClockClass]:
        index = self._class_of_key.get(clock_key(expression))
        return self.classes[index] if index is not None else None

    def class_of_signal(self, name: str) -> Optional[ClockClass]:
        return self.class_of(ClockOf(name))

    def same_class(self, left: ClockExpressionSyntax, right: ClockExpressionSyntax) -> bool:
        left_class = self.class_of(left)
        right_class = self.class_of(right)
        return left_class is not None and right_class is not None and left_class.index == right_class.index

    def dominates(self, above: int, below: int) -> bool:
        """Reflexive-transitive dominance between class indices."""
        return above == below or (above, below) in self.dominance

    def strict_dominators(self, index: int) -> Set[int]:
        return {
            above
            for (above, below) in self.dominance
            if below == index and above != index and (below, above) not in self.dominance
        }

    # -- constraint reporting (Section 5.1) ----------------------------------------
    def implied_equalities(
        self, clocks: Iterable[ClockExpressionSyntax]
    ) -> List[Tuple[ClockExpressionSyntax, ClockExpressionSyntax]]:
        """Every pair of the given clocks that R proves equal, in list order.

        This is the mechanism Polychrony uses to *report clock constraints*
        such as ``[¬a] = [b]`` when composing the producer and the consumer;
        the controller synthesis of Section 5.2 is built from this report.
        Rule 2 already decided every provable equality among the hierarchy's
        clocks, so the pairs are read off the classes without a single BDD
        query.  The clocks must be hierarchy members (signal clocks and
        boolean samplings).
        """
        clock_list = list(clocks)
        positions_by_class: Dict[int, List[int]] = {}
        for position, clock in enumerate(clock_list):
            clock_class = self.class_of(clock)
            if clock_class is None:
                raise ValueError(
                    f"{format_clock_expression(clock)} is not a clock of the hierarchy"
                )
            positions_by_class.setdefault(clock_class.index, []).append(position)
        pairs: List[Tuple[int, int]] = sorted(
            (first, second)
            for positions in positions_by_class.values()
            for index, first in enumerate(positions)
            for second in positions[index + 1 :]
        )
        return [(clock_list[first], clock_list[second]) for first, second in pairs]

    # -- roots and structure ---------------------------------------------------
    def roots(self) -> List[ClockClass]:
        """The minimal classes of the hierarchy (no strict dominator)."""
        return [
            clock_class
            for clock_class in self.classes
            if not self.strict_dominators(clock_class.index) and not self._is_empty_class(clock_class)
        ]

    def _is_empty_class(self, clock_class: ClockClass) -> bool:
        return self.algebra.is_empty_clock(clock_class.representative())

    def root_count(self) -> int:
        return len(self.roots())

    def is_hierarchic(self) -> bool:
        """Definition 11: the hierarchy has a unique root."""
        return self.root_count() == 1

    def root_signals(self) -> List[List[str]]:
        """For every root class, the signals whose clock belongs to it."""
        return [root.signal_clocks() for root in self.roots()]

    def subtree_signals(self, root: ClockClass) -> Set[str]:
        """The signals whose clock class is dominated by ``root`` (including it)."""
        signals: Set[str] = set()
        for clock_class in self.classes:
            if self.dominates(root.index, clock_class.index):
                signals.update(clock_class.signal_clocks())
        return signals

    def parent_map(self) -> Dict[int, Optional[int]]:
        """An immediate-dominator map used to display the hierarchy as a forest."""
        parents: Dict[int, Optional[int]] = {}
        for clock_class in self.classes:
            dominators = self.strict_dominators(clock_class.index)
            if not dominators:
                parents[clock_class.index] = None
                continue
            # choose the *lowest* strict dominator: one not above any other dominator
            best = None
            for candidate in sorted(dominators):
                if all(
                    other == candidate or not self.dominates(candidate, other)
                    for other in dominators
                ):
                    best = candidate
            parents[clock_class.index] = best if best is not None else sorted(dominators)[0]
        return parents

    # -- well-formedness (Definition 6) ---------------------------------------------
    def well_formed(self) -> bool:
        return not self.ill_formed_reasons()

    def ill_formed_reasons(self) -> List[str]:
        """The reasons (if any) the hierarchy is ill-formed.

        The check follows Definition 6, restricted to the free (interface)
        signals of the process: a process that constrains the *value* of one
        of its own inputs (``x^ ~ [x]`` or ``x^ ~ [¬x]`` for an input ``x``)
        may block its environment.  Locally defined boolean signals of
        constant value (such as the output of ``true when c``) legitimately
        satisfy ``x^ = [x]`` and are not flagged.
        """
        reasons: List[str] = []
        if not self.algebra.satisfiable():
            reasons.append("the timing relations are unsatisfiable (the only solution is silence)")
        boolean_inputs = [
            name for name in self.process.inputs if self.process.types.get(name) == "bool"
        ]
        for name in boolean_inputs:
            tick = ClockOf(name)
            if self.algebra.is_empty_clock(tick):
                reasons.append(f"input signal {name!r} can never be present")
                continue
            if self.algebra.entails_equal(tick, ClockTrue(name)):
                reasons.append(
                    f"input signal {name!r} is constrained to be true whenever present"
                )
            if self.algebra.entails_equal(tick, ClockFalse(name)):
                reasons.append(
                    f"input signal {name!r} is constrained to be false whenever present"
                )
        return reasons

    # -- display ------------------------------------------------------------------
    def describe(self) -> str:
        """A textual rendering of the forest, mirroring the paper's figures."""
        parents = self.parent_map()
        children: Dict[Optional[int], List[int]] = {}
        for index, parent in parents.items():
            children.setdefault(parent, []).append(index)
        lines: List[str] = []

        def render(index: int, depth: int) -> None:
            clock_class = self.classes[index]
            if self._is_empty_class(clock_class) and depth == 0:
                return
            lines.append("  " * depth + clock_class.describe())
            for child in sorted(children.get(index, [])):
                render(child, depth + 1)

        for root in sorted(children.get(None, [])):
            render(root, 0)
        return "\n".join(lines)


def _interesting_clocks(process: NormalizedProcess) -> List[ClockExpressionSyntax]:
    clocks: List[ClockExpressionSyntax] = []
    boolean = set(process.boolean_signals())
    for name in process.all_signals():
        clocks.append(ClockOf(name))
        if name in boolean:
            clocks.append(ClockTrue(name))
            clocks.append(ClockFalse(name))
    return clocks


def build_hierarchy(
    process: NormalizedProcess,
    relations: Optional[TimingRelations] = None,
    algebra: Optional[ClockAlgebra] = None,
) -> ClockHierarchy:
    """Build the clock hierarchy of a normalized process (Definition 5)."""
    from repro.clocks.inference import infer_timing_relations

    if relations is None:
        relations = infer_timing_relations(process)
    if algebra is None:
        algebra = ClockAlgebra(process, relations)

    clocks = _interesting_clocks(process)

    # rule 2: equivalence classes under provable equality, by hash-consing.
    # R is a conjunction of variable-disjoint factors, each satisfied by the
    # silent instant (every signal absent).  Every clock here is about one
    # signal ``x``, whose presence the algebra encodes as ``p·rep(x)``, the
    # presence variable of its synchrony class, and ``v·x`` only ever occurs
    # conjoined with ``p·rep(x)``, so any factor the clock touches contains
    # ``p·rep(x)``.  Hence, for satisfiable R, ``R ⊨ a = b`` iff
    # ``constrained(a)`` and ``constrained(b)`` (each clock conjoined with
    # the factors it touches) are the same function:
    # if ``b`` touches a factor ``a`` does not, silencing that factor in an
    # instant of ``R ∧ a`` keeps the instant in ``R ∧ a`` and makes ``b``
    # false, unless both clocks are empty — and empty clocks all constrain
    # to ``false``.  Equal functions are one node, so the classes are the
    # groups of constrained nodes: one conjunction per clock, no entailment
    # query, no pairwise comparison.  Unsatisfiable relations entail every
    # equality: one class.
    classes: List[ClockClass] = []
    class_of_node: Dict[Optional[int], ClockClass] = {}
    satisfiable = algebra.satisfiable()
    for clock in clocks:
        node = algebra.constrained(algebra.encode(clock)).index if satisfiable else None
        clock_class = class_of_node.get(node)
        if clock_class is None:
            clock_class = class_of_node[node] = ClockClass(index=len(classes))
            classes.append(clock_class)
        clock_class.members.append(clock)

    key_to_class: Dict[ClockKey, int] = {}
    for clock_class in classes:
        for member in clock_class.members:
            key_to_class[clock_key(member)] = clock_class.index

    # Base (generating) dominance edges, closed by reachability below.
    base_edges: Set[Tuple[int, int]] = set()

    def add_base(above: int, below: int) -> bool:
        if above == below or (above, below) in base_edges:
            return False
        base_edges.add((above, below))
        return True

    # rule 1: x^ determines [x] and [¬x]
    boolean = set(process.boolean_signals())
    for name in process.all_signals():
        if name not in boolean:
            continue
        tick = key_to_class.get(clock_key(ClockOf(name)))
        true_class = key_to_class.get(clock_key(ClockTrue(name)))
        false_class = key_to_class.get(clock_key(ClockFalse(name)))
        if tick is not None and true_class is not None:
            add_base(tick, true_class)
        if tick is not None and false_class is not None:
            add_base(tick, false_class)

    # rule 3: a clock defined by an operation on two determined clocks is determined
    defining_relations: List[Tuple[int, int, int]] = []
    for relation in relations.clock_relations:
        right = relation.right
        if not isinstance(right, ClockBinary):
            continue
        left_class = key_to_class.get(clock_key(relation.left))
        operand_left = key_to_class.get(clock_key(right.left))
        operand_right = key_to_class.get(clock_key(right.right))
        if None in (left_class, operand_left, operand_right):
            continue
        defining_relations.append((left_class, operand_left, operand_right))

    def reachability(edges: Set[Tuple[int, int]]) -> Dict[int, Set[int]]:
        successors: Dict[int, Set[int]] = {clock_class.index: set() for clock_class in classes}
        for above, below in edges:
            successors[above].add(below)
        reachable: Dict[int, Set[int]] = {}
        for clock_class in classes:
            start = clock_class.index
            seen: Set[int] = set()
            stack = list(successors[start])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(successors[node])
            reachable[start] = seen
        return reachable

    while True:
        reachable = reachability(base_edges)
        added = False
        for target, first, second in defining_relations:
            for clock_class in classes:
                candidate = clock_class.index
                dominates_first = candidate == first or first in reachable[candidate]
                dominates_second = candidate == second or second in reachable[candidate]
                if dominates_first and dominates_second and target not in reachable[candidate]:
                    added |= add_base(candidate, target)
        if not added:
            break

    reachable = reachability(base_edges)
    dominance: Set[Tuple[int, int]] = {
        (above, below) for above, belows in reachable.items() for below in belows
    }
    return ClockHierarchy(process, algebra, classes, dominance)
