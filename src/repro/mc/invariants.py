"""The weak-endochrony invariants of Section 4.1 (Property 3).

Implements the model-checking formulation the paper targets at Sigali: weak
endochrony of a compilable process is expressed as three
invariants over pairs of *root* clocks ``x``, ``y`` (and, for the third, an
arbitrary third signal ``z``), checked by the Sigali model checker:

* ``StateIndependent(x, y)``: if ``x`` can occur without ``y`` now and ``y``
  without ``x`` at the next instant, then ``x`` and ``y`` can also occur
  together now — performing them in either order does not change the state;
* ``OrderIndependent(x, y)``: when ``x`` and ``y`` are each enabled alone,
  they are also enabled together (the diamond can be closed in one step);
* ``FlowIndependent(x, y, z)``: the choice of performing ``x`` or ``y`` first
  does not decide whether a third signal ``z`` can be produced.

Here the invariants are checked on the reaction LTS of the boolean
abstraction; each function returns an :class:`InvariantResult` with a
counterexample state when the invariant fails.  Every function quantifies
over the ``iter_states()`` of an :class:`~repro.mc.onthefly.OnTheFlyChecker`,
so a failing invariant stops the exploration at the violating state instead
of forcing the full product first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.mc.onthefly import InvariantResult, OnTheFlyChecker
from repro.mc.transition import State, Transition
from repro.mocc.reactions import Reaction


def _reactions_with(checker, state: State, present: str, absent: str):
    """Reactions from ``state`` in which ``present`` occurs and ``absent`` does not."""
    return [
        reaction
        for reaction in checker.reactions_from(state)
        if present in reaction.present_signals() and absent not in reaction.present_signals()
    ]


def _reactions_with_both(checker, state: State, first: str, second: str):
    return [
        reaction
        for reaction in checker.reactions_from(state)
        if first in reaction.present_signals() and second in reaction.present_signals()
    ]


def check_state_independent(checker, x: str, y: str) -> InvariantResult:
    """Property (1) of Section 4.1 for the pair of signals ``(x, y)``."""
    name = f"StateIndependent({x}, {y})"
    for state in checker.iter_states():
        for first in _reactions_with(checker, state, x, y):
            successor = checker.successor(state, first)
            if successor is None:
                continue
            y_after = _reactions_with(checker, successor, y, x)
            if not y_after:
                continue
            if not _reactions_with_both(checker, state, x, y):
                return InvariantResult(
                    name,
                    False,
                    f"in state {dict(state)}, {x} then {y} is possible but not {x} and {y} together",
                )
    return InvariantResult(name, True)


def check_order_independent(checker, x: str, y: str) -> InvariantResult:
    """Property (2) of Section 4.1 for the pair of signals ``(x, y)``."""
    name = f"OrderIndependent({x}, {y})"
    for state in checker.iter_states():
        x_alone = _reactions_with(checker, state, x, y)
        y_alone = _reactions_with(checker, state, y, x)
        if x_alone and y_alone and not _reactions_with_both(checker, state, x, y):
            return InvariantResult(
                name,
                False,
                f"in state {dict(state)}, {x} and {y} are enabled separately but never together",
            )
    return InvariantResult(name, True)


def check_flow_independent(checker, x: str, y: str, z: str) -> InvariantResult:
    """Property (3) of Section 4.1 for the triple ``(x, y, z)``."""
    name = f"FlowIndependent({x}, {y}, {z})"
    for state in checker.iter_states():
        x_alone = _reactions_with(checker, state, x, y)
        y_alone = _reactions_with(checker, state, y, x)
        if not (x_alone and y_alone):
            continue
        z_now = any(z in reaction.present_signals() for reaction in checker.reactions_from(state))
        if not z_now:
            continue
        # z must remain producible whichever of x or y is performed first
        for first in x_alone + y_alone:
            successor = checker.successor(state, first)
            if successor is None:
                continue
            if z in first.present_signals():
                continue
            z_later = any(
                z in reaction.present_signals() for reaction in checker.reactions_from(successor)
            )
            if not z_later:
                return InvariantResult(
                    name,
                    False,
                    f"in state {dict(state)}, producing {sorted(first.present_signals())} first "
                    f"makes {z} unavailable",
                )
    return InvariantResult(name, True)


@dataclass
class WeakEndochronyInvariantReport:
    """The result of checking properties (1)-(3) over every pair of roots."""

    process_name: str
    pairs: List[Tuple[str, str]] = field(default_factory=list)
    results: List[InvariantResult] = field(default_factory=list)
    states_explored: int = 0
    transitions_explored: int = 0

    def holds(self) -> bool:
        return all(result.holds for result in self.results)

    def failures(self) -> List[InvariantResult]:
        return [result for result in self.results if not result.holds]

    def __str__(self) -> str:
        lines = [
            f"weak endochrony invariants for {self.process_name}: "
            f"{'hold' if self.holds() else 'FAIL'} "
            f"({self.states_explored} states, {self.transitions_explored} transitions)"
        ]
        lines.extend(f"  {result}" for result in self.results)
        return "\n".join(lines)


class _QueryView:
    """One query's view of a shared :class:`OnTheFlyChecker`.

    Records the distinct states whose reactions the query consulted (memo
    hits included) with their transition counts, so the cost a query
    reports does not depend on what earlier queries already expanded.
    """

    def __init__(self, checker: OnTheFlyChecker):
        self.checker = checker
        self.visited: Dict[State, int] = {}

    def _transitions_from(self, state: State) -> List[Transition]:
        transitions = self.checker.transitions_from(state)
        self.visited.setdefault(state, len(transitions))
        return transitions

    def iter_states(self):
        for state in self.checker.iter_states():
            self._transitions_from(state)
            yield state

    def reactions_from(self, state: State) -> List[Reaction]:
        return [transition.reaction for transition in self._transitions_from(state)]

    def successor(self, state: State, reaction: Reaction) -> Optional[State]:
        for transition in self._transitions_from(state):
            if transition.reaction == reaction:
                return transition.target
        return None


def check_weak_endochrony_invariants(
    checker: OnTheFlyChecker,
    root_signals: Sequence[Sequence[str]],
    flow_signals: Iterable[str] = (),
) -> WeakEndochronyInvariantReport:
    """Check properties (1)-(3) for every pair of root representatives.

    ``root_signals`` lists, for every root of the clock hierarchy, the signals
    whose clock belongs to that root class; the check uses one representative
    per root, as the paper does.  ``flow_signals`` are the extra signals ``z``
    used by ``FlowIndependent`` (typically the outputs of the process).

    The check returns at the first failing invariant: sweeping the remaining
    pairs would force the full exploration the lazy engine exists to avoid.
    The report counts the states and transitions this query visited.
    """
    view = _QueryView(checker)
    report = WeakEndochronyInvariantReport(process_name=checker.process_name)
    representatives = [signals[0] for signals in root_signals if signals]

    def results():
        for index, x in enumerate(representatives):
            for y in representatives[index + 1 :]:
                report.pairs.append((x, y))
                yield check_state_independent(view, x, y)
                yield check_order_independent(view, x, y)
                for z in flow_signals:
                    if z not in (x, y):
                        yield check_flow_independent(view, x, y, z)

    for result in results():
        report.results.append(result)
        if not result.holds:
            break
    report.states_explored = len(view.visited)
    report.transitions_explored = sum(view.visited.values())
    return report
