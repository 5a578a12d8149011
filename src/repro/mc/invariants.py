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

The quantifiers over reactions read the state's
:class:`~repro.mc.onthefly.StateTable`: ``masks[x]`` has bit ``i`` set iff
``x`` is present in the state's ``i``-th reaction, so "``x`` without ``y``"
is ``masks[x] & ~masks[y]`` and "``x`` and ``y`` together" is
``masks[x] & masks[y]``; the successor of the ``i``-th reaction is one
lookup in the state's first-wins ``targets`` index.  Reactions are visited
in the order the state enumerates them, so the successors expanded, the
states a query visits and the first failure reported are those of a scan of
the state's transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.mc.onthefly import InvariantResult, OnTheFlyChecker, StateTable
from repro.mc.transition import State


def _positions(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_state_independent(checker, x: str, y: str) -> InvariantResult:
    """Property (1) of Section 4.1 for the pair of signals ``(x, y)``."""
    name = f"StateIndependent({x}, {y})"
    for state in checker.iter_states():
        table = checker.table(state)
        masks = table.masks
        x_mask = masks.get(x, 0)
        y_mask = masks.get(y, 0)
        both = x_mask & y_mask
        reactions = table.reactions
        targets = table.targets
        for index in _positions(x_mask & ~y_mask):
            after = checker.table(targets[reactions[index]])
            if both:
                # the state already closes the diamond; the successor is
                # still visited, as the quantifier over ``x`` alone asks
                continue
            after_masks = after.masks
            if after_masks.get(y, 0) & ~after_masks.get(x, 0):
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
        masks = checker.table(state).masks
        x_mask = masks.get(x, 0)
        y_mask = masks.get(y, 0)
        if x_mask & ~y_mask and y_mask & ~x_mask and not x_mask & y_mask:
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
        table = checker.table(state)
        masks = table.masks
        x_mask = masks.get(x, 0)
        y_mask = masks.get(y, 0)
        x_alone = x_mask & ~y_mask
        y_alone = y_mask & ~x_mask
        if not (x_alone and y_alone):
            continue
        z_mask = masks.get(z, 0)
        if not z_mask:
            continue
        reactions = table.reactions
        targets = table.targets
        # z must remain producible whichever of x or y is performed first
        for index in chain(_positions(x_alone), _positions(y_alone)):
            if z_mask >> index & 1:
                continue
            first = reactions[index]
            if not checker.table(targets[first]).masks.get(z, 0):
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

    Records the distinct states whose tables the query consulted (memo
    hits included) with their transition counts, so the cost a query
    reports does not depend on what earlier queries already expanded.
    """

    def __init__(self, checker: OnTheFlyChecker):
        self.checker = checker
        self.visited: Dict[State, int] = {}

    def table(self, state: State) -> StateTable:
        table = self.checker.table(state)
        self.visited.setdefault(state, len(table.transitions))
        return table

    def iter_states(self):
        for state in self.checker.iter_states():
            self.table(state)
            yield state


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
