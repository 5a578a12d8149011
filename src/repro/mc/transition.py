"""Boolean abstraction of a Signal process as a reaction-labelled LTS.

Implements the state-space construction that Section 4 of the paper model
checks (the paper compiles Signal programs to polynomial transition systems
for Sigali; here the same role is played by this reaction-labelled LTS).
Weak endochrony (Definition 2) and non-blocking (Definition 4) are stated
over exactly these reactions.  :class:`BooleanAbstraction` is the
interpreter-backed reaction source; the exploration whose cost Theorem 1
avoids is driven by :class:`~repro.mc.onthefly.OnTheFlyChecker`, which also
materializes a :class:`ReactionLTS` when a full one is needed.

The state of the abstraction is the valuation of the boolean delay registers
(numeric registers are abstracted away: in the clock calculus only boolean
values influence presence).  A transition is a *reaction*: an assignment of
presence (and boolean values) to the signals of the process that satisfies
every equation, as computed by the operational interpreter.

Reactions are enumerated by choosing, for every *activation point* of the
process — its input signals plus one representative of every internal root of
its clock hierarchy — whether it participates in the reaction and, for
boolean inputs, with which value.  The interpreter then accepts or rejects
each candidate, so the resulting LTS contains exactly the reactions allowed
by the Signal semantics (restricted to canonical values for non-boolean
inputs, which do not influence clocks).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.clocks.hierarchy import ClockHierarchy, build_hierarchy
from repro.lang.normalize import DelayEquation, NormalizedProcess
from repro.mocc.interning import intern_state
from repro.mocc.reactions import Reaction
from repro.semantics.interpreter import ABSENT, TICK, SignalInterpreter

#: canonical value used for non-boolean inputs (their value never drives a clock)
CANONICAL_NUMERIC_VALUE = 1

State = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class ReactionChoice:
    """One candidate activation: inputs and internal roots to make present."""

    assignments: Tuple[Tuple[str, object], ...]

    def as_inputs(self) -> Dict[str, object]:
        return {name: value for name, value in self.assignments if value is not TICK}

    def as_assumptions(self) -> Dict[str, object]:
        return {name: value for name, value in self.assignments if value is TICK}


@dataclass
class Transition:
    """One transition of the LTS: a reaction taking ``source`` to ``target``."""

    source: State
    reaction: Reaction
    target: State


@dataclass
class ReactionLTS:
    """The explored reaction-labelled transition system."""

    process_name: str
    initial: State
    states: List[State] = field(default_factory=list)
    transitions: List[Transition] = field(default_factory=list)
    truncated: bool = False

    def state_count(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return len(self.transitions)


class BooleanAbstraction:
    """Builds reactions and successor states of the boolean abstraction."""

    def __init__(
        self,
        process: NormalizedProcess,
        hierarchy: Optional[ClockHierarchy] = None,
        extra_activation_signals: Iterable[str] = (),
    ):
        self.process = process
        self.interpreter = SignalInterpreter(process)
        self.hierarchy = hierarchy or build_hierarchy(process)
        self._boolean = set(process.boolean_signals())
        self._state_signals = tuple(
            name for name in process.state_signals() if name in self._boolean
        )
        self._activation_points = self._compute_activation_points(extra_activation_signals)
        self._choices: Optional[Tuple[ReactionChoice, ...]] = None

    # -- activation points ----------------------------------------------------
    def _compute_activation_points(self, extra: Iterable[str]) -> Tuple[Tuple[str, Tuple], ...]:
        points: List[Tuple[str, Tuple]] = []
        inputs = set(self.process.inputs)
        for name in self.process.inputs:
            if name in self._boolean:
                points.append((name, (ABSENT, True, False)))
            else:
                points.append((name, (ABSENT, CANONICAL_NUMERIC_VALUE)))
        # internal roots: one representative signal per root class without inputs
        for root in self.hierarchy.roots():
            signals = root.signal_clocks()
            if not signals or any(name in inputs for name in signals):
                continue
            representative = signals[0]
            points.append((representative, (ABSENT, TICK)))
        for name in extra:
            if name not in {point for point, _ in points}:
                points.append((name, (ABSENT, TICK)))
        return tuple(points)

    def activation_signals(self) -> Tuple[str, ...]:
        return tuple(name for name, _choices in self._activation_points)

    # -- states -----------------------------------------------------------------
    def initial_state(self) -> State:
        registers = {
            equation.target: equation.initial
            for equation in self.process.equations
            if isinstance(equation, DelayEquation)
        }
        return intern_state(tuple((name, registers[name]) for name in self._state_signals))

    def _full_state(self, abstract: State) -> Dict[str, object]:
        """Concrete interpreter state for an abstract state (numeric registers canonical)."""
        registers = {
            equation.target: equation.initial
            for equation in self.process.equations
            if isinstance(equation, DelayEquation)
        }
        registers.update(dict(abstract))
        return registers

    def _abstract_state(self, concrete: Mapping[str, object]) -> State:
        return intern_state(tuple((name, concrete[name]) for name in self._state_signals))

    # -- reactions --------------------------------------------------------------
    def enumerate_choices(self) -> List[ReactionChoice]:
        """Every candidate activation of the process (before feasibility filtering).

        The enumeration only depends on the activation points, not on the
        state, so it is computed once and reused by every ``reactions()``
        call (one per explored state).
        """
        if self._choices is None:
            names = [name for name, _ in self._activation_points]
            domains = [choices for _, choices in self._activation_points]
            self._choices = tuple(
                ReactionChoice(tuple(zip(names, combination)))
                for combination in itertools.product(*domains)
            )
        return list(self._choices)

    def reactions(self, state: State) -> List[Tuple[Reaction, State]]:
        """The feasible reactions from ``state`` with their successor states."""
        results: List[Tuple[Reaction, State]] = []
        seen: Set[Reaction] = set()
        for choice in self.enumerate_choices():
            self.interpreter.restore_state(self._full_state(state))
            outcome = self.interpreter.try_step(
                inputs=choice.as_inputs(), assume=choice.as_assumptions(), commit=True
            )
            if outcome is None:
                continue
            reaction = self._project_reaction(outcome.reaction)
            if reaction in seen:
                continue
            seen.add(reaction)
            successor = self._abstract_state(self.interpreter.state)
            results.append((reaction, successor))
        return results

    def _project_reaction(self, reaction: Reaction) -> Reaction:
        """Keep presence for every signal but values only for boolean signals."""
        events = {}
        for name, value in reaction.items():
            events[name] = value if name in self._boolean else CANONICAL_NUMERIC_VALUE
        return Reaction.interned(reaction.domain, events)

