"""Symbolic (BDD-based) model checking — the role Sigali plays in Section 4.

The explicit-state engine of :mod:`repro.mc.onthefly` is sufficient for the
paper's examples; this module provides the symbolic counterpart so that the
cost comparison of the paper (static criterion vs. state-space exploration)
can be reproduced with either engine.

:class:`SymbolicProductChecker` builds the transition relation of a
composition ``P1 | ... | Pn`` *directly as the conjunction of the
per-component relations*: variables are declared from the components'
structural :class:`~repro.clocks.order.VariableOrder`, one component at a
time, and shared signals map to one common event variable, so
synchronization is plain BDD conjunction and the product's states are never
enumerated.  A single process is the product of one: its relation is the
encoding of its own reaction LTS.

The transition relations are built over four groups of BDD variables:

* ``s·r``   — current value of boolean register ``r``;
* ``s'·r``  — next value of boolean register ``r``;
* ``e·x``   — presence of signal ``x`` in the reaction (the event variables);
* ``d·x``   — the value carried by a boolean signal ``x`` when present, so
  that two components sharing a boolean signal agree on its value, not
  just its clock.

The image of a state set is one relational product,
``and_exists(states, relation, step and current variables)``, followed by
an order-preserving rename ``s'·r -> s·r``; the conjunction of states and
relation is never built.  Reachability iterates the image on the frontier
only (the states first reached in the previous round) and is computed once
per checker: the reachable count, the node count and the deadlock check all
reuse it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.bdd.bdd import BDD, BDDManager
from repro.clocks.order import structural_order
from repro.lang.normalize import NormalizedProcess
from repro.mc.compiled import (
    current_variable,
    event_variable,
    next_variable,
    symbolic_variables,
    value_variable,
)
from repro.mc.onthefly import InvariantResult, product_conflicts
from repro.mc.transition import ReactionLTS, State


def _own_signals(lts: ReactionLTS) -> List[str]:
    """The signals the reactions of ``lts`` range over, sorted."""
    return sorted({signal for t in lts.transitions for signal in t.reaction.domain})


class SymbolicProductChecker:
    """Symbolic reachability over a product built *without* enumerating it.

    Each component contributes the relation of its own (small, individually
    explored) reaction LTS over its own register variables; signals shared by
    several components map to the same ``e·x`` / ``d·x`` variables, so the
    product transition relation is simply the conjunction of the component
    relations — the synchronous product of the paper's ``P | Q`` at the BDD
    level.  ``components`` are the processes the LTSs were explored from, in
    the same order: the variables are declared in their structural
    :class:`~repro.clocks.order.VariableOrder` (so each component's events,
    values and registers are contiguous and the product relation stays a
    chain of small per-component relations), and a signal carries a ``d·x``
    value variable when a component declares it boolean.

    A product of two or more components needs complete component LTSs: a
    truncated component would silently under-approximate the product.  A
    product of one accepts a truncated LTS; its images are then kept within
    the states the LTS explored, because its transitions may point at states
    the bound cut and that therefore have no encoded successors.  Two
    further preconditions mirror :class:`repro.mc.onthefly.ProductLTS`
    (whose docstring explains why): no signal may be defined by more than
    one component, and the component LTSs should be built under the
    *composition's* unified types (the abstraction is type-directed; use
    ``ProductLTS.abstracted``).
    """

    _reached: Optional[BDD] = None
    _blocked: Optional[BDD] = None
    #: node count of each frontier of the reachability fixpoint, in order
    frontier_nodes: Tuple[int, ...] = ()

    def __init__(
        self,
        component_ltss: Sequence[ReactionLTS],
        manager: Optional[BDDManager] = None,
        *,
        components: Sequence[NormalizedProcess],
    ):
        if not component_ltss:
            raise ValueError("a symbolic product needs at least one component LTS")
        truncated = [lts.process_name for lts in component_ltss if lts.truncated]
        if truncated and len(component_ltss) > 1:
            raise ValueError(
                f"component LTSs are truncated ({', '.join(truncated)}); raise max_states"
            )
        conflicts = product_conflicts(components)
        if conflicts:
            raise ValueError(
                f"symbolic product components multiply define {', '.join(conflicts)}; "
                "the conjunction of component relations cannot enforce value "
                "agreement between defining equations (encode the composed "
                "process instead)"
            )
        self.component_ltss = tuple(component_ltss)
        self.manager = manager or BDDManager()
        registers = [name for lts in component_ltss for name, _ in lts.initial]
        if len(registers) != len(set(registers)):
            raise ValueError("product components share register names")
        self._registers = tuple(sorted(registers))
        order = structural_order(components)
        for name in symbolic_variables(order):
            self.manager.declare(name)
        self._boolean_signals = frozenset(order.booleans)
        own_signals = [_own_signals(lts) for lts in component_ltss]
        self._signals = tuple(sorted(set().union(*own_signals)))
        self._transition_relation = self.manager.true
        for lts, signals in zip(component_ltss, own_signals):
            self._transition_relation = (
                self._transition_relation & self._component_relation(lts, signals)
            )
        self._initial = self.manager.true
        for lts in component_ltss:
            self._initial = self._and_state(self._initial, lts.initial, current_variable)
        self._bound = self.manager.true
        if truncated:
            explored = self.manager.false
            for state in component_ltss[0].states:
                explored = explored | self._and_state(self.manager.true, state, current_variable)
            self._bound = explored

    @property
    def transition_relation(self) -> BDD:
        return self._transition_relation

    @property
    def initial_states(self) -> BDD:
        return self._initial

    # -- encoding ----------------------------------------------------------------
    def _and_state(self, encoded: BDD, state: State, variable_of) -> BDD:
        """``encoded`` conjoined with the register valuation ``state``."""
        for register, value in state:
            variable = self.manager.var(variable_of(register))
            encoded = encoded & (variable if bool(value) else ~variable)
        return encoded

    def _encode_component_reaction(self, reaction, own_signals: Iterable[str]) -> BDD:
        """Presence and boolean values of the component's own signals only."""
        encoded = self.manager.true
        for signal in own_signals:
            event = self.manager.var(event_variable(signal))
            if signal in reaction:
                encoded = encoded & event
                if signal in self._boolean_signals:
                    data = self.manager.var(value_variable(signal))
                    encoded = encoded & (data if reaction.value(signal) else ~data)
            else:
                encoded = encoded & ~event
        return encoded

    def _component_relation(self, lts: ReactionLTS, own_signals: Sequence[str]) -> BDD:
        relation = self.manager.false
        for transition in lts.transitions:
            encoded = self._encode_component_reaction(transition.reaction, own_signals)
            encoded = self._and_state(encoded, transition.source, current_variable)
            relation = relation | self._and_state(encoded, transition.target, next_variable)
        return relation

    # -- reachability ---------------------------------------------------------------
    def _step_variables(self) -> List[str]:
        variables = [event_variable(signal) for signal in self._signals]
        variables += [
            value_variable(signal) for signal in self._signals if signal in self._boolean_signals
        ]
        return variables

    def image(self, states: BDD) -> BDD:
        """The states reachable in one transition: a relational product."""
        quantified = self._step_variables() + [
            current_variable(register) for register in self._registers
        ]
        renaming = {
            next_variable(register): current_variable(register) for register in self._registers
        }
        step = states.and_exists(self._transition_relation, quantified)
        return step.rename(renaming) & self._bound

    def reachable_states(self, max_iterations: int = 10_000) -> BDD:
        """Least fixpoint of the image from the initial states (computed once).

        Each round images only the frontier — the states first reached in
        the round before — so a state's successors are computed once.
        """
        if self._reached is not None:
            return self._reached
        reached = frontier = self._initial
        sizes = []
        for _ in range(max_iterations):
            sizes.append(frontier.node_count())
            frontier = self.image(frontier).diff(reached)
            if frontier.is_false():
                self._reached, self.frontier_nodes = reached, tuple(sizes)
                return reached
            reached = reached | frontier
        raise RuntimeError("reachability fixpoint did not converge")

    def reachable_count(self) -> int:
        variables = [current_variable(register) for register in self._registers]
        if not variables:
            return 1 if self.reachable_states().is_satisfiable() else 0
        return self.reachable_states().count(variables)

    # -- Definition 4 -----------------------------------------------------------------
    def _blocked_states(self) -> BDD:
        """States with no reaction at all (computed once)."""
        if self._blocked is None:
            self._blocked = ~self._transition_relation.exists(
                self._step_variables()
                + [next_variable(register) for register in self._registers]
            )
        return self._blocked

    def deadlock_states(self) -> BDD:
        """Reachable states with no reaction at all (Definition 4)."""
        return self.reachable_states() & self._blocked_states()

    def is_non_blocking(self) -> InvariantResult:
        """Definition 4 decided on the transition relation.

        The deadlock witness is taken from the reachable and blocked sets
        without building their conjunction.
        """
        witness = self.manager.satisfy_one_and(self.reachable_states(), self._blocked_states())
        if witness is None:
            return InvariantResult("non-blocking", True)
        readable = {
            variable.split("·", 1)[1]: value
            for variable, value in witness.items()
            if variable.startswith("s·")
        }
        return InvariantResult("non-blocking", False, f"reachable deadlock state {readable}")

    def bdd_nodes(self) -> int:
        """BDD nodes of the encoded model: relation plus reachable set."""
        return self._transition_relation.node_count() + self.reachable_states().node_count()
