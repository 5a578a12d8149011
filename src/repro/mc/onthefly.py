"""The explicit-state engine: lazy reaction LTSs and a frontier-based search.

Implements the explicit side of Section 4's model checking, in the spirit of
the paper's central cost argument (Section 4 / Theorem 1): deciding a
property of a composition ``P1 | ... | Pn`` should not require
materializing the synchronous product up front.

* :class:`LazyReactionLTS` — the reaction LTS of one boolean abstraction
  (:mod:`repro.mc.transition`) with successors computed and memoized on
  demand;
* :class:`ProductLTS` — the synchronous product of *component* abstractions,
  expanded on demand: a product reaction is a compatible join of one reaction
  per component (agreeing on the presence and value of every shared signal),
  found by backtracking over the components so incompatible combinations are
  pruned without ever enumerating the ``3^n`` global activation choices of
  the composed process;
* :class:`OnTheFlyChecker` — the one breadth-first search driver over any
  lazy LTS.  The Definition 2 axioms, the Definition 4 deadlock search and
  the Section 4.1 invariants are written against its query interface
  (``iter_states`` and the per-state :class:`StateTable` of ``table``), so
  a check that returns on the first violating reaction terminates after
  expanding only the states it visited.  Exhausting the search
  (:meth:`OnTheFlyChecker.materialize`) is the only way to obtain a full
  :class:`~repro.mc.transition.ReactionLTS`.

The product states are *flattened* to the same register-valuation tuples as
the abstraction of the composed process, and the product reactions are
built on the union domain under the composition's unified types, so a
product and a lazy view of the composed process explore the same states and
the same transitions (only the enumeration order differs — the join yields
successors component-wise, the composed abstraction in global choice
order).  Property-based equivalence is pinned by ``tests/test_onthefly.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.clocks.hierarchy import ClockHierarchy
from repro.lang.normalize import NormalizedProcess
from repro.mc.transition import BooleanAbstraction, ReactionLTS, State, Transition
from repro.mocc.interning import intern_state
from repro.mocc.reactions import Reaction

Successor = Tuple[Reaction, State]


@dataclass
class InvariantResult:
    """The outcome of checking one invariant: holds or a counterexample."""

    name: str
    holds: bool
    counterexample: Optional[str] = None

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        status = "holds" if self.holds else f"FAILS: {self.counterexample}"
        return f"{self.name}: {status}"


def product_conflicts(components: Sequence[NormalizedProcess]) -> List[str]:
    """Signals defined by more than one component — no abstraction product
    can join defining equations across components (values are canonical)."""
    definers: Dict[str, int] = {}
    for component in components:
        for signal in component.defined_signals():
            definers[signal] = definers.get(signal, 0) + 1
    return sorted(signal for signal, count in definers.items() if count > 1)


class LazyReactionLTS:
    """Successor-on-demand view of one process's boolean abstraction."""

    def __init__(
        self,
        process: NormalizedProcess,
        hierarchy: Optional[ClockHierarchy] = None,
        abstraction: Optional[BooleanAbstraction] = None,
    ):
        self.abstraction = abstraction or BooleanAbstraction(process, hierarchy)
        self.process_name = process.name
        self.initial: State = self.abstraction.initial_state()
        self._successors: Dict[State, Tuple[Successor, ...]] = {}

    def uses_compiled(self) -> bool:
        """True iff reactions come from a compiled step relation."""
        from repro.mc.compiled import CompiledAbstraction

        return isinstance(self.abstraction, CompiledAbstraction)

    def successors(self, state: State) -> Tuple[Successor, ...]:
        cached = self._successors.get(state)
        if cached is None:
            cached = tuple(self.abstraction.reactions(state))
            self._successors[state] = cached
        return cached


class ProductLTS:
    """The synchronous product of component abstractions, expanded lazily.

    A product state is the tuple of component register valuations, flattened
    into one sorted register-valuation tuple (components must have disjoint
    register names, which composition by name-matching guarantees up to
    α-renaming of locals).  A product reaction joins one reaction per
    component such that every signal shared by two components is present in
    both or in neither, with the same value; the join is searched by
    backtracking over the components so a component whose choice contradicts
    an earlier one prunes the whole subtree.

    Two preconditions are checked (``ValueError`` otherwise, on which the
    session facade falls back to a lazy view of the composed process):

    * register names must be disjoint across components;
    * no signal may be *defined* by more than one component.  The boolean
      abstraction replaces numeric values by a canonical token, so presence/
      value join cannot enforce that two defining equations in different
      components agree on a concrete value — only the composed interpreter
      can.  Signals defined once and read elsewhere (the paper's chains,
      stars and producer/consumer networks) are exactly what the product
      handles.
    """

    def __init__(
        self,
        components: Sequence[NormalizedProcess],
        name: Optional[str] = None,
        types: Optional[Mapping[str, str]] = None,
        engine: str = "compiled",
        compile_component=None,
        hierarchy_for=None,
    ):
        if not components:
            raise ValueError("a product needs at least one component")
        if engine not in ("compiled", "interpreter"):
            raise ValueError(f"unknown product engine {engine!r}")
        self.components = tuple(components)
        self.process_name = name or "|".join(c.name for c in components)
        # The boolean abstraction is type-directed (boolean signals carry
        # values, others a canonical token), and composition *unifies* types:
        # a signal a component types 'any' may be boolean in the composed
        # process.  Abstract every component under the composition's types —
        # passed by the caller, or inferred by composing — so the product
        # joins the very reactions the composed process's abstraction
        # enumerates.
        if types is None:
            types = reduce(lambda left, right: left.compose(right), components).types
        abstracted: List[Tuple[NormalizedProcess, bool]] = []
        for component in components:
            local_types = {
                signal: types.get(signal, component.types.get(signal, "any"))
                for signal in component.all_signals()
            }
            if local_types == dict(component.types):
                abstracted.append((component, True))
            else:
                retyped = NormalizedProcess(
                    name=component.name,
                    inputs=component.inputs,
                    outputs=component.outputs,
                    locals=component.locals,
                    equations=component.equations,
                    types=local_types,
                )
                abstracted.append((retyped, False))
        #: the components as actually abstracted (retyped under the unified
        #: types where needed) — the symbolic product must encode these same
        #: abstractions, not the locally-typed originals
        self.abstracted = tuple(component for component, _original in abstracted)
        # ``engine="compiled"``: each component enumerates its reactions from
        # its compiled step relation (repro.mc.compiled) when it fits the
        # boolean-definable fragment, falling back to the interpreter-backed
        # BooleanAbstraction per component otherwise.  ``compile_component``
        # lets a session (AnalysisContext) serve memoized compilations so the
        # same components are not recompiled per product instance.
        # ``hierarchy_for`` resolves the hierarchy of an original (not
        # retyped) component lazily, and only when it falls back to the
        # interpreter — a product whose relations all compile or load from an
        # artifact store needs no hierarchy (hence no ProcessAnalysis) for
        # any component.
        if compile_component is None and engine == "compiled":
            from repro.mc.compiled import CompiledAbstraction

            compile_component = CompiledAbstraction.try_compile
        self._lts = []
        for component, original in abstracted:
            abstraction = compile_component(component) if engine == "compiled" else None
            hierarchy = None
            if abstraction is None and original and hierarchy_for is not None:
                hierarchy = hierarchy_for(component)
            self._lts.append(LazyReactionLTS(component, hierarchy, abstraction=abstraction))
        self._domains = [set(component.all_signals()) for component in components]
        self._union_domain = tuple(sorted(set().union(*self._domains)))
        registers: List[str] = []
        for lazy in self._lts:
            registers.extend(name for name, _ in lazy.initial)
        if len(registers) != len(set(registers)):
            raise ValueError(
                f"product components of {self.process_name} share register names; "
                "rename the clashing local state signals"
            )
        conflicts = product_conflicts(components)
        if conflicts:
            raise ValueError(
                f"product components of {self.process_name} multiply define "
                f"{', '.join(conflicts)}; the abstraction cannot join defining "
                "equations across components (use the composed process instead)"
            )
        # shared signals, indexed for the backtracking join: for component i,
        # the earlier components j < i it must agree with and on what.
        self._shared: List[List[Tuple[int, Tuple[str, ...]]]] = []
        for i in range(len(components)):
            constraints: List[Tuple[int, Tuple[str, ...]]] = []
            for j in range(i):
                common = self._domains[i] & self._domains[j]
                if common:
                    constraints.append((j, tuple(common)))
            self._shared.append(constraints)
        self._unflatten: Dict[State, Tuple[State, ...]] = {}
        self.initial = self._flatten(tuple(lazy.initial for lazy in self._lts))
        self._successors: Dict[State, Tuple[Successor, ...]] = {}

    def uses_compiled(self) -> bool:
        """True iff at least one component serves reactions from a compiled
        step relation (the rest fell back to the interpreter)."""
        return any(lazy.uses_compiled() for lazy in self._lts)

    def _flatten(self, component_states: Tuple[State, ...]) -> State:
        merged: List[Tuple[str, object]] = []
        for component_state in component_states:
            merged.extend(component_state)
        flattened = intern_state(tuple(sorted(merged)))
        self._unflatten.setdefault(flattened, component_states)
        return flattened

    def successors(self, state: State) -> Tuple[Successor, ...]:
        cached = self._successors.get(state)
        if cached is not None:
            return cached
        component_states = self._unflatten[state]
        per_component = [
            lazy.successors(component_state)
            for lazy, component_state in zip(self._lts, component_states)
        ]
        results: List[Successor] = []
        chosen: List[Optional[Successor]] = [None] * len(self._lts)

        def compatible(index: int, reaction: Reaction) -> bool:
            for j, common in self._shared[index]:
                other = chosen[j][0]
                for signal in common:
                    present = signal in reaction
                    if present != (signal in other):
                        return False
                    if present and reaction.value(signal) != other.value(signal):
                        return False
            return True

        def extend(index: int) -> None:
            if index == len(self._lts):
                events: Dict[str, object] = {}
                for reaction, _target in chosen:
                    for signal, value in reaction.items():
                        events[signal] = value
                merged = Reaction.interned(self._union_domain, events)
                target = self._flatten(tuple(target for _reaction, target in chosen))
                results.append((merged, target))
                return
            for successor in per_component[index]:
                if compatible(index, successor[0]):
                    chosen[index] = successor
                    extend(index + 1)
            chosen[index] = None

        extend(0)
        cached = tuple(results)
        self._successors[state] = cached
        return cached


class StateTable:
    """The query tables of one expanded state, each built on first use.

    ``transitions`` is the state's outgoing transitions in the order its
    lazy LTS enumerated them; every other table is derived from it the
    first time a query reads it, so a query that never asks for a table
    (the deadlock search reads only ``transitions``) never pays for it:

    * ``targets`` — ``{reaction: target}``, first transition wins (what a
      scan of ``transitions`` for the first equal reaction returns), and
      ``conflict``, the first reaction whose target differs from the one
      ``targets`` recorded for it (the determinism witness), or ``None``;
    * ``reactions`` / ``non_silent`` — the reactions of ``transitions`` in
      order, duplicates kept, with and without the stuttering ones;
    * ``item_sets`` — ``frozenset(reaction.items())`` of each ``non_silent``
      reaction, and ``item_targets`` — ``{frozenset(items): target}``,
      first transition wins.  Item sets identify reactions only among
      reactions of one domain, which every reaction of one lazy LTS has
      (a :class:`ProductLTS` builds its joins on the union domain, a
      :class:`LazyReactionLTS` enumerates its process's signals), so
      ``domain`` is the engine's domain and building ``item_targets`` on a
      reaction of another domain raises ``ValueError``;
    * ``masks`` — ``{signal: bitmask}``, bit ``i`` set iff ``signal`` is
      present in ``reactions[i]``.
    """

    __slots__ = (
        "transitions",
        "domain",
        "_targets",
        "_conflict",
        "_reactions",
        "_non_silent",
        "_item_sets",
        "_item_targets",
        "_masks",
    )

    def __init__(self, transitions: Tuple[Transition, ...], domain: Optional[Tuple[str, ...]]):
        self.transitions = transitions
        self.domain = domain
        self._targets: Optional[Dict[Reaction, State]] = None
        self._conflict: Optional[Reaction] = None
        self._reactions: Optional[Tuple[Reaction, ...]] = None
        self._non_silent: Optional[Tuple[Reaction, ...]] = None
        self._item_sets: Optional[Tuple[FrozenSet[Tuple[str, object]], ...]] = None
        self._item_targets: Optional[Dict[FrozenSet[Tuple[str, object]], State]] = None
        self._masks: Optional[Dict[str, int]] = None

    def _index_targets(self) -> None:
        targets: Dict[Reaction, State] = {}
        for transition in self.transitions:
            target = transition.target
            first = targets.setdefault(transition.reaction, target)
            if self._conflict is None and first is not target and first != target:
                self._conflict = transition.reaction
        self._targets = targets

    @property
    def targets(self) -> Dict[Reaction, State]:
        if self._targets is None:
            self._index_targets()
        return self._targets

    @property
    def conflict(self) -> Optional[Reaction]:
        if self._targets is None:
            self._index_targets()
        return self._conflict

    @property
    def reactions(self) -> Tuple[Reaction, ...]:
        if self._reactions is None:
            self._reactions = tuple(transition.reaction for transition in self.transitions)
        return self._reactions

    @property
    def non_silent(self) -> Tuple[Reaction, ...]:
        if self._non_silent is None:
            self._non_silent = tuple(
                reaction for reaction in self.reactions if not reaction.is_silent()
            )
        return self._non_silent

    @property
    def item_sets(self) -> Tuple[FrozenSet[Tuple[str, object]], ...]:
        if self._item_sets is None:
            self._item_sets = tuple(frozenset(reaction.items()) for reaction in self.non_silent)
        return self._item_sets

    @property
    def item_targets(self) -> Dict[FrozenSet[Tuple[str, object]], State]:
        if self._item_targets is None:
            domain = self.domain
            item_targets: Dict[FrozenSet[Tuple[str, object]], State] = {}
            for transition in self.transitions:
                reaction = transition.reaction
                if reaction.domain is not domain and reaction.domain != domain:
                    raise ValueError(
                        f"reaction {reaction} is not on the engine's domain {domain}; "
                        "item sets identify reactions of one domain only"
                    )
                item_targets.setdefault(frozenset(reaction.items()), transition.target)
            self._item_targets = item_targets
        return self._item_targets

    @property
    def masks(self) -> Dict[str, int]:
        if self._masks is None:
            masks: Dict[str, int] = {}
            bit = 1
            for reaction in self.reactions:
                for signal in reaction.present_signals():
                    masks[signal] = masks.get(signal, 0) | bit
                bit <<= 1
            self._masks = masks
        return self._masks


class OnTheFlyChecker:
    """Frontier-based search over a lazy LTS.

    States are discovered breadth-first and expanded only when a query needs
    their successors, so a check that stops at the first violating reaction
    leaves the rest of the state space untouched.  Expansions are memoized:
    queries issued against one checker keep extending one exploration, and
    every query reads the expanded state's :class:`StateTable`, so a
    successor lookup is one dictionary probe instead of a transition scan.
    """

    def __init__(self, lazy, max_states: int = 512):
        self.lazy = lazy
        self.max_states = max_states
        self.truncated = False
        self.transitions_expanded = 0
        #: the domain of every reaction of the lazy LTS (fixed by the first
        #: reaction expanded; see :class:`StateTable`)
        self.domain: Optional[Tuple[str, ...]] = None
        self._order: List[State] = [lazy.initial]
        self._seen: Set[State] = {lazy.initial}
        self._tables: Dict[State, StateTable] = {}

    @property
    def process_name(self) -> str:
        return self.lazy.process_name

    @property
    def initial(self) -> State:
        return self.lazy.initial

    def uses_compiled(self) -> bool:
        """True iff the underlying lazy LTS serves compiled reactions."""
        uses = getattr(self.lazy, "uses_compiled", None)
        return bool(uses()) if uses is not None else False

    @property
    def states_expanded(self) -> int:
        return len(self._tables)

    @property
    def states_discovered(self) -> int:
        return len(self._seen)

    def _discover(self, state: State) -> None:
        if state in self._seen:
            return
        if len(self._seen) >= self.max_states:
            self.truncated = True
            return
        self._seen.add(state)
        self._order.append(state)

    # -- queries ------------------------------------------------------------------
    def table(self, state: State) -> StateTable:
        """The query tables of ``state``, expanding it on first use."""
        table = self._tables.get(state)
        if table is None:
            successors = self.lazy.successors(state)
            if self.domain is None and successors:
                self.domain = successors[0][0].domain
            table = StateTable(
                tuple(
                    Transition(source=state, reaction=reaction, target=target)
                    for reaction, target in successors
                ),
                self.domain,
            )
            self._tables[state] = table
            self.transitions_expanded += len(successors)
            for _reaction, target in successors:
                self._discover(target)
        return table

    def transitions_from(self, state: State) -> Tuple[Transition, ...]:
        return self.table(state).transitions

    def successor(self, state: State, reaction: Reaction) -> Optional[State]:
        return self.table(state).targets.get(reaction)

    def enables(self, state: State, reaction: Reaction) -> bool:
        return reaction in self.table(state).targets

    def iter_states(self) -> Iterator[State]:
        """Breadth-first stream of reachable states, expanding as it goes.

        Breaking out of the iteration early (on the first violation) leaves
        every state past the break point unexpanded — that is the engine's
        whole point.
        """
        index = 0
        while index < len(self._order):
            state = self._order[index]
            index += 1
            self.table(state)
            yield state

    # -- early-terminating checks -------------------------------------------------
    def find_deadlock(self) -> Optional[State]:
        """The first reachable state with no reaction at all, or ``None``."""
        for state in self.iter_states():
            if not self.transitions_from(state):
                return state
        return None

    def is_non_blocking(self) -> InvariantResult:
        """Definition 4 with early termination on the first deadlock."""
        deadlock = self.find_deadlock()
        if deadlock is not None:
            return InvariantResult(
                "non-blocking", False, f"state {dict(deadlock)} has no reaction at all"
            )
        return InvariantResult("non-blocking", True)

    # -- totals -------------------------------------------------------------------
    def explore_all(self) -> None:
        """Expand every reachable state (up to ``max_states``)."""
        for _state in self.iter_states():
            pass

    def materialize(self) -> ReactionLTS:
        """The fully explored :class:`ReactionLTS`: states in breadth-first
        order, each state's transitions in its reaction source's order."""
        self.explore_all()
        lts = ReactionLTS(
            process_name=self.process_name,
            initial=self.initial,
            states=list(self._order),
            truncated=self.truncated,
        )
        for state in self._order:
            lts.transitions.extend(self._tables[state].transitions)
        return lts

    def statistics(self) -> Dict[str, int]:
        return {
            "states_expanded": self.states_expanded,
            "states_discovered": self.states_discovered,
            "transitions_expanded": self.transitions_expanded,
            "state_bound": self.max_states,
            "truncated": int(self.truncated),
        }
