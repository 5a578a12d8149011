"""Weak endochrony — implements Definition 2 and the Section 4.1 formulation.

Definition 2 asks a process to be deterministic and to satisfy the diamond
properties over independent reactions:

* (2a) a reaction that was possible after another independent reaction was
  already possible before it;
* (2b) two independent reactions enabled together can be merged into one;
* (2c) a merged reaction can be split back and performed sequentially.

:func:`check_weak_endochrony` checks these properties directly on the
reaction LTS of the boolean abstraction.  :func:`model_check_weak_endochrony`
uses the invariant formulation of Section 4.1 over the roots of the clock
hierarchy (properties (1)-(3)), which is how the paper proposes to verify the
property with Sigali; the two agree on the paper's examples and the second is
the one whose cost the compositional criterion is designed to avoid.

Every axiom is implemented per state, and both drivers run on an
:class:`~repro.mc.onthefly.OnTheFlyChecker`: one breadth-first sweep checks
*all* axioms at each state as the frontier advances and returns at the
first violating reaction, leaving the rest of the product unexpanded.
Definition 2 is a conjunction, so the first violation decides the verdict.
Each axiom reads the state's :class:`~repro.mc.onthefly.StateTable`: (2a)
looks successors up in ``targets``, (2b) and (2c) combine the reactions'
item sets and look the results up in ``item_targets``, and determinism reads
the ``conflict`` recorded when ``targets`` was built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.api.results import Cost, Verdict, diagnostics_from_invariants, stopwatch
from repro.clocks.hierarchy import ClockHierarchy
from repro.lang.normalize import NormalizedProcess
from repro.mc.invariants import WeakEndochronyInvariantReport, check_weak_endochrony_invariants
from repro.mc.onthefly import InvariantResult, LazyReactionLTS, OnTheFlyChecker
from repro.mc.transition import State
from repro.mocc.reactions import Reaction
from repro.properties.compilable import ProcessAnalysis


@dataclass
class WeakEndochronyReport:
    """Outcome of checking Definition 2 on the reaction LTS.

    ``complete`` is ``False`` when the check returned at the first violation
    (``results`` then holds the failing axiom only, and the exploration
    counts are the states/transitions visited up to it) or when the
    exploration was cut by the state bound — an all-holds report over a
    truncated state space is a *bounded* result, not a proof.
    """

    process_name: str
    results: List[InvariantResult] = field(default_factory=list)
    states_explored: int = 0
    transitions_explored: int = 0
    complete: bool = True

    def holds(self) -> bool:
        return all(result.holds for result in self.results)

    def failures(self) -> List[InvariantResult]:
        return [result for result in self.results if not result.holds]

    def __str__(self) -> str:
        status = "weakly endochronous" if self.holds() else "NOT weakly endochronous"
        lines = [
            f"{self.process_name}: {status} "
            f"({self.states_explored} states, {self.transitions_explored} transitions)"
        ]
        lines.extend(f"  {result}" for result in self.results)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-state axiom checks
# ---------------------------------------------------------------------------

def _determinism_at(checker, state: State) -> Optional[InvariantResult]:
    conflict = checker.table(state).conflict
    if conflict is None:
        return None
    return InvariantResult(
        "determinism", False, f"reaction {conflict} from {dict(state)} has two successors"
    )


def _axiom_2a_at(checker, state: State) -> Optional[InvariantResult]:
    """(2a): if b·r·s is possible with r, s independent, then b·s is possible."""
    table = checker.table(state)
    targets = table.targets
    for first in table.non_silent:
        first_present = first.present_signals()
        for second in checker.table(targets[first]).non_silent:
            if second in targets or not first_present.isdisjoint(second.present_signals()):
                continue
            return InvariantResult(
                "axiom 2a (commutation)",
                False,
                f"from state {dict(state)}, {second} is possible after {first} "
                f"but not before it",
            )
    return None


def _axiom_2b_at(checker, state: State) -> Optional[InvariantResult]:
    """(2b): independent reactions enabled together can be merged.

    The union ``r ⊔ s`` is the item set ``items(r) | items(s)``, looked up
    in the state's item-set index.
    """
    table = checker.table(state)
    enabled = table.non_silent
    item_sets = table.item_sets
    item_targets = table.item_targets
    for index, first in enumerate(enabled):
        first_present = first.present_signals()
        first_items = item_sets[index]
        for other in range(index + 1, len(enabled)):
            second = enabled[other]
            if not first_present.isdisjoint(second.present_signals()):
                continue
            if first_items | item_sets[other] not in item_targets:
                return InvariantResult(
                    "axiom 2b (merge)",
                    False,
                    f"from state {dict(state)}, {first} and {second} are enabled "
                    f"but their union is not",
                )
    return None


def _axiom_2c_at(checker, state: State) -> Optional[InvariantResult]:
    """(2c): merged reactions sharing a common part can be decomposed sequentially.

    The common part of two enabled reactions is ``items(r) & items(s)`` (the
    signals present in both with the same value) and the remainders are the
    differences; each is looked up in an item-set index, and a
    :class:`Reaction` is built only to print a counterexample.
    """
    name = "axiom 2c (decomposition)"
    table = checker.table(state)
    enabled = table.non_silent
    item_sets = table.item_sets
    item_targets = table.item_targets
    for index, first_union in enumerate(enabled):
        first_present = first_union.present_signals()
        first_items = item_sets[index]
        for other in range(index + 1, len(enabled)):
            second_items = item_sets[other]
            core = first_items & second_items
            size = len(core)
            if not size or size == len(first_items) or size == len(second_items):
                continue
            # Definition 2 quantifies over *independent* reactions: the core and
            # the two remainders must be pairwise independent for (2c) to apply,
            # so every signal the two unions share must be in the core.
            second_union = enabled[other]
            if len(first_present & second_union.present_signals()) != size:
                continue
            after_core = item_targets.get(core)
            if after_core is None:
                return InvariantResult(
                    name,
                    False,
                    f"from state {dict(state)}, the common part "
                    f"{_reaction(first_union, core)} of two enabled "
                    f"reactions is not itself enabled",
                )
            after = checker.table(after_core).item_targets
            for union, items in ((first_union, first_items), (second_union, second_items)):
                rest = items - core
                if rest not in after:
                    return InvariantResult(
                        name,
                        False,
                        f"from state {dict(state)}, {_reaction(first_union, core)} "
                        f"cannot be followed by {_reaction(union, rest)} "
                        f"although their union is enabled",
                    )
    return None


def _reaction(reaction: Reaction, items) -> Reaction:
    """The sub-reaction of ``reaction`` on the signals named in ``items``."""
    return Reaction(reaction.domain, {name: reaction.value(name) for name, _value in items})


_AXIOMS = (
    ("determinism", _determinism_at),
    ("axiom 2a (commutation)", _axiom_2a_at),
    ("axiom 2b (merge)", _axiom_2b_at),
    ("axiom 2c (decomposition)", _axiom_2c_at),
)


# ---------------------------------------------------------------------------
# The two drivers
# ---------------------------------------------------------------------------

def check_weak_endochrony(
    process: NormalizedProcess,
    hierarchy: Optional[ClockHierarchy] = None,
    max_states: int = 512,
    checker: Optional[OnTheFlyChecker] = None,
) -> WeakEndochronyReport:
    """Check Definition 2 on the reaction LTS of the boolean abstraction.

    The axioms are checked together at each state as the frontier advances
    and the check returns at the first violating reaction — the report is
    then marked incomplete.  ``checker`` defaults to the interpreter-backed
    engine over ``process``.
    """
    if checker is None:
        checker = OnTheFlyChecker(LazyReactionLTS(process, hierarchy), max_states)
    # per-query exploration metric: the states this check visited (whether
    # the engine expanded them now or served them from the session's memo) —
    # the early-termination win Cost.states is meant to show
    report = WeakEndochronyReport(process_name=process.name)
    for state in checker.iter_states():
        report.states_explored += 1
        report.transitions_explored += len(checker.transitions_from(state))
        for _name, axiom_at in _AXIOMS:
            violation = axiom_at(checker, state)
            if violation is not None:
                report.results.append(violation)
                report.complete = False
                return report
    report.results = [InvariantResult(name, True) for name, _axiom_at in _AXIOMS]
    # a bound-cut exploration proves nothing beyond the bound
    report.complete = not checker.truncated
    return report


def model_check_weak_endochrony(
    process: NormalizedProcess,
    analysis: Optional[ProcessAnalysis] = None,
    flow_signals: Iterable[str] = (),
    max_states: int = 512,
    checker: Optional[OnTheFlyChecker] = None,
) -> WeakEndochronyInvariantReport:
    """Section 4.1: check invariants (1)-(3) over the roots of the hierarchy.

    ``checker`` defaults to the interpreter-backed engine over ``process``.
    """
    analysis = analysis or ProcessAnalysis(process)
    if checker is None:
        checker = OnTheFlyChecker(LazyReactionLTS(process, analysis.hierarchy), max_states)
    flow_signals = tuple(flow_signals) or tuple(process.outputs)
    return check_weak_endochrony_invariants(
        checker, analysis.hierarchy.root_signals(), flow_signals
    )


def verify_weak_endochrony(
    process: NormalizedProcess,
    analysis: Optional[ProcessAnalysis] = None,
    method: str = "explicit",
    max_states: int = 512,
    checker: Optional[OnTheFlyChecker] = None,
) -> Verdict:
    """Definition 2 as a :class:`~repro.api.results.Verdict`.

    ``method="explicit"`` checks the diamond axioms of Definition 2 directly
    on the reaction LTS (:func:`check_weak_endochrony`); ``method="symbolic"``
    uses the invariant formulation of Section 4.1 over the hierarchy roots
    (:func:`model_check_weak_endochrony`) — the form the paper would hand to
    Sigali, and the exploration whose cost Theorem 1 avoids.  Either method
    runs on ``checker``, by default the interpreter-backed engine over
    ``process``.
    """
    with stopwatch() as elapsed:
        if method == "explicit":
            report = check_weak_endochrony(process, max_states=max_states, checker=checker)
        elif method == "symbolic":
            report = model_check_weak_endochrony(
                process, analysis=analysis, max_states=max_states, checker=checker
            )
        else:
            raise ValueError(
                f"unknown weak endochrony method {method!r}; use 'explicit' or 'symbolic'"
            )
    return Verdict(
        prop="weak-endochrony",
        subject=process.name,
        holds=report.holds(),
        method=method,
        diagnostics=diagnostics_from_invariants(report.results),
        cost=Cost(
            seconds=elapsed[0],
            states=report.states_explored,
            transitions=report.transitions_explored,
            state_bound=max_states,
        ),
        report=report,
    )
