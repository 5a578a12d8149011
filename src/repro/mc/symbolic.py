"""Symbolic (BDD-based) model checking — the role Sigali plays in Section 4.

The explicit-state engine of :mod:`repro.mc.onthefly` is sufficient for the
paper's examples; this module provides the symbolic counterpart so that the
cost comparison of the paper (static criterion vs. state-space exploration)
can be reproduced with either engine.  Two constructions are provided:

* :class:`SymbolicChecker` encodes one explicitly explored
  :class:`~repro.mc.transition.ReactionLTS` and answers invariant queries on
  the BDD-reachable set;
* :class:`SymbolicProductChecker` builds the transition relation of a
  composition ``P1 | ... | Pn`` *directly as the conjunction of the
  per-component relations* — component register variables are declared in an
  interleaved order and shared signals map to one common event variable, so
  synchronization is plain BDD conjunction and the product's states are
  never enumerated.

The transition relations are built over four groups of BDD variables:

* ``s·r``   — current value of boolean register ``r``;
* ``s'·r``  — next value of boolean register ``r``;
* ``e·x``   — presence of signal ``x`` in the reaction (the event variables);
* ``d·x``   — the boolean value carried by ``x`` when present (product only,
  so that two components sharing a boolean signal agree on its value, not
  just its clock).

The image of a state set is one relational product,
``and_exists(states, relation, step and current variables)``, followed by
an order-preserving rename ``s'·r -> s·r``; the conjunction of states and
relation is never built.  Reachability iterates the image on the frontier
only (the states first reached in the previous round) and is computed once
per checker: the reachable count, the node count and the deadlock check all
reuse it.  Invariants are checked on the reachable set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bdd.bdd import BDD, BDDManager
from repro.mc.onthefly import InvariantResult
from repro.mc.transition import ReactionLTS, State


def current_variable(register: str) -> str:
    return f"s·{register}"


def next_variable(register: str) -> str:
    return f"s'·{register}"


def event_variable(signal: str) -> str:
    return f"e·{signal}"


def value_variable(signal: str) -> str:
    return f"d·{signal}"


class _ImageFixpoint:
    """The image operator, the memoized reachable set and Definition 4.

    Subclasses set ``manager``, ``_registers``, ``_signals``,
    ``_transition_relation``, ``_initial`` and ``_bound`` (the state set
    images are kept within), and name their step variables (events, plus
    data values for the product).
    """

    manager: BDDManager
    _registers: Tuple[str, ...]
    _signals: Tuple[str, ...]
    _transition_relation: BDD
    _initial: BDD
    _bound: BDD
    _reached: Optional[BDD] = None
    _blocked: Optional[BDD] = None
    #: node count of each frontier of the reachability fixpoint, in order
    frontier_nodes: Tuple[int, ...] = ()
    _deadlock_label = "reachable deadlock state"

    @property
    def registers(self) -> Tuple[str, ...]:
        """The state registers of the encoded transition system."""
        return self._registers

    @property
    def signals(self) -> Tuple[str, ...]:
        """The event signals of the encoded transition system."""
        return self._signals

    @property
    def transition_relation(self) -> BDD:
        return self._transition_relation

    @property
    def initial_states(self) -> BDD:
        return self._initial

    def _step_variables(self) -> List[str]:
        raise NotImplementedError

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
        return InvariantResult("non-blocking", False, f"{self._deadlock_label} {readable}")

    def bdd_nodes(self) -> int:
        """BDD nodes of the encoded model: relation plus reachable set."""
        return self._transition_relation.node_count() + self.reachable_states().node_count()


class SymbolicChecker(_ImageFixpoint):
    """BDD-based reachability and invariant checking over a reaction LTS.

    The LTS is first built explicitly (the enumeration of feasible reactions
    requires the interpreter), then encoded symbolically; all fixpoint
    computations after that point are pure BDD operations.  This mirrors how
    Sigali is used in the paper: the Signal program is compiled to a
    polynomial/boolean transition system once, and every property is then
    checked symbolically.
    """

    def __init__(
        self,
        lts: ReactionLTS,
        manager: Optional[BDDManager] = None,
    ):
        self.lts = lts
        self.manager = manager or BDDManager()
        self._registers: Tuple[str, ...] = tuple(name for name, _ in lts.initial)
        self._signals: Tuple[str, ...] = self._collect_signals()
        for register in self._registers:
            self.manager.declare(current_variable(register))
            self.manager.declare(next_variable(register))
        for signal in self._signals:
            self.manager.declare(event_variable(signal))
        self._transition_relation = self._encode_transitions()
        self._initial = self._encode_state(lts.initial, current_variable)
        # The set of states the (possibly max_states-truncated) LTS actually
        # explored.  Transitions may point at states cut by the bound; without
        # this restriction those dangling targets would be BDD-reachable yet
        # have no encoded successors, diverging from the explicit checker.
        self._explored = self.manager.false
        for state in lts.states:
            self._explored = self._explored | self._encode_state(state, current_variable)
        self._bound = self._explored

    # -- encoding ----------------------------------------------------------------
    def _collect_signals(self) -> Tuple[str, ...]:
        signals: Set[str] = set()
        for transition in self.lts.transitions:
            signals.update(transition.reaction.domain)
        return tuple(sorted(signals))

    def _encode_state(self, state: State, variable_of) -> BDD:
        encoded = self.manager.true
        for register, value in state:
            variable = self.manager.var(variable_of(register))
            encoded = encoded & (variable if bool(value) else ~variable)
        return encoded

    def _encode_reaction(self, reaction) -> BDD:
        encoded = self.manager.true
        present = reaction.present_signals()
        for signal in self._signals:
            variable = self.manager.var(event_variable(signal))
            encoded = encoded & (variable if signal in present else ~variable)
        return encoded

    def _encode_transitions(self) -> BDD:
        relation = self.manager.false
        for transition in self.lts.transitions:
            encoded = (
                self._encode_state(transition.source, current_variable)
                & self._encode_reaction(transition.reaction)
                & self._encode_state(transition.target, next_variable)
            )
            relation = relation | encoded
        return relation

    # -- reachability ---------------------------------------------------------------
    @property
    def explored_states(self) -> BDD:
        """The encoded set of states present in the LTS (the bounded model)."""
        return self._explored

    def _step_variables(self) -> List[str]:
        return [event_variable(signal) for signal in self._signals]

    # -- invariants -------------------------------------------------------------------
    def check_invariant(self, name: str, invariant: BDD) -> InvariantResult:
        """Check that ``invariant`` (over current-state variables) holds on all reachable states."""
        violating = self.reachable_states() & ~invariant
        if violating.is_false():
            return InvariantResult(name, True)
        witness = violating.satisfy_one() or {}
        readable = {
            variable.split("·", 1)[1]: value
            for variable, value in witness.items()
            if variable.startswith("s·")
        }
        return InvariantResult(name, False, f"reachable counterexample state {readable}")

    def check_reaction_invariant(self, name: str, invariant: BDD) -> InvariantResult:
        """Check an invariant over current-state and event variables on every transition."""
        violating = self.reachable_states() & self._transition_relation & ~invariant
        if violating.is_false():
            return InvariantResult(name, True)
        witness = violating.satisfy_one() or {}
        readable = {variable: value for variable, value in witness.items() if value}
        return InvariantResult(name, False, f"violating transition {readable}")

    # -- helpers for building invariants -------------------------------------------------
    def event(self, signal: str) -> BDD:
        return self.manager.var(event_variable(signal))

    def register(self, name: str) -> BDD:
        return self.manager.var(current_variable(name))


class SymbolicProductChecker(_ImageFixpoint):
    """Symbolic reachability over a product built *without* enumerating it.

    Each component contributes the relation of its own (small, individually
    explored) reaction LTS over its own register variables; signals shared by
    several components map to the same ``e·x`` / ``d·x`` variables, so the
    product transition relation is simply the conjunction of the component
    relations — the synchronous product of the paper's ``P | Q`` at the BDD
    level.  Register variables are declared in an *interleaved* order
    (register 0 of every component, then register 1 of every component, ...)
    which keeps the relation compact for chains of similar components.

    The component LTSs must be complete (not truncated): a truncated
    component would silently under-approximate the product.  Two further
    preconditions mirror :class:`repro.mc.onthefly.ProductLTS` (whose
    docstring explains why): no signal may be defined by more than one
    component — pass ``components`` so this can be checked — and the
    component LTSs should be built under the *composition's* unified types
    (the abstraction is type-directed; use ``ProductLTS.abstracted``).
    """

    _deadlock_label = "reachable product deadlock state"

    def __init__(
        self,
        component_ltss: Sequence[ReactionLTS],
        manager: Optional[BDDManager] = None,
        components: Optional[Sequence[object]] = None,
    ):
        if not component_ltss:
            raise ValueError("a symbolic product needs at least one component LTS")
        truncated = [lts.process_name for lts in component_ltss if lts.truncated]
        if truncated:
            raise ValueError(
                f"component LTSs are truncated ({', '.join(truncated)}); raise max_states"
            )
        if components is not None:
            from repro.mc.onthefly import product_conflicts

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
        register_groups = [tuple(name for name, _ in lts.initial) for lts in component_ltss]
        flat = [name for group in register_groups for name in group]
        if len(flat) != len(set(flat)):
            raise ValueError("product components share register names")
        self._registers = tuple(sorted(flat))
        # interleaved declaration order: position j of every component in turn
        for position in range(max((len(g) for g in register_groups), default=0)):
            for group in register_groups:
                if position < len(group):
                    self.manager.declare(current_variable(group[position]))
                    self.manager.declare(next_variable(group[position]))
        signals: Set[str] = set()
        booleans: Set[str] = set()
        for lts in component_ltss:
            for transition in lts.transitions:
                signals.update(transition.reaction.domain)
                for name, value in transition.reaction.items():
                    if isinstance(value, bool):
                        booleans.add(name)
        self._signals = tuple(sorted(signals))
        self._boolean_signals = frozenset(booleans)
        for signal in self._signals:
            self.manager.declare(event_variable(signal))
            if signal in self._boolean_signals:
                self.manager.declare(value_variable(signal))
        self._transition_relation = self.manager.true
        for lts, group in zip(component_ltss, register_groups):
            self._transition_relation = (
                self._transition_relation & self._component_relation(lts, group)
            )
        self._bound = self.manager.true
        self._initial = self.manager.true
        for lts in component_ltss:
            for register, value in lts.initial:
                variable = self.manager.var(current_variable(register))
                self._initial = self._initial & (variable if bool(value) else ~variable)

    # -- encoding ----------------------------------------------------------------
    def _encode_component_reaction(self, reaction, own_signals: Iterable[str]) -> BDD:
        """Presence and boolean values of the component's own signals only."""
        encoded = self.manager.true
        for signal in own_signals:
            event = self.manager.var(event_variable(signal))
            if signal in reaction:
                encoded = encoded & event
                value = reaction.value(signal)
                if isinstance(value, bool):
                    data = self.manager.var(value_variable(signal))
                    encoded = encoded & (data if value else ~data)
            else:
                encoded = encoded & ~event
        return encoded

    def _component_relation(self, lts: ReactionLTS, registers: Sequence[str]) -> BDD:
        own_signals = sorted({s for t in lts.transitions for s in t.reaction.domain})
        relation = self.manager.false
        for transition in lts.transitions:
            encoded = self._encode_component_reaction(transition.reaction, own_signals)
            for register, value in transition.source:
                variable = self.manager.var(current_variable(register))
                encoded = encoded & (variable if bool(value) else ~variable)
            for register, value in transition.target:
                variable = self.manager.var(next_variable(register))
                encoded = encoded & (variable if bool(value) else ~variable)
            relation = relation | encoded
        return relation

    # -- reachability ---------------------------------------------------------------
    def _step_variables(self) -> List[str]:
        variables = [event_variable(signal) for signal in self._signals]
        variables += [
            value_variable(signal) for signal in self._signals if signal in self._boolean_signals
        ]
        return variables
