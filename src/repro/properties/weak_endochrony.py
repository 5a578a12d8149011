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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.api.results import Cost, Verdict, diagnostics_from_invariants, stopwatch
from repro.clocks.hierarchy import ClockHierarchy
from repro.lang.normalize import NormalizedProcess
from repro.mc.invariants import WeakEndochronyInvariantReport, check_weak_endochrony_invariants
from repro.mc.onthefly import InvariantResult, LazyReactionLTS, OnTheFlyChecker
from repro.mc.transition import State
from repro.mocc.reactions import Reaction, independent, merge_reactions
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
    seen: Dict[Reaction, State] = {}
    for transition in checker.transitions_from(state):
        previous = seen.get(transition.reaction)
        if previous is not None and previous != transition.target:
            return InvariantResult(
                "determinism",
                False,
                f"reaction {transition.reaction} from {dict(state)} has two successors",
            )
        seen[transition.reaction] = transition.target
    return None


def _axiom_2a_at(checker, state: State) -> Optional[InvariantResult]:
    """(2a): if b·r·s is possible with r, s independent, then b·s is possible."""
    for first in checker.non_silent_reactions_from(state):
        successor = checker.successor(state, first)
        if successor is None:
            continue
        for second in checker.non_silent_reactions_from(successor):
            if not independent(first, second):
                continue
            if not checker.enables(state, second):
                return InvariantResult(
                    "axiom 2a (commutation)",
                    False,
                    f"from state {dict(state)}, {second} is possible after {first} "
                    f"but not before it",
                )
    return None


def _axiom_2b_at(checker, state: State) -> Optional[InvariantResult]:
    """(2b): independent reactions enabled together can be merged."""
    enabled = checker.non_silent_reactions_from(state)
    for index, first in enumerate(enabled):
        for second in enabled[index + 1 :]:
            if not independent(first, second):
                continue
            merged = merge_reactions(first, second)
            if not checker.enables(state, merged):
                return InvariantResult(
                    "axiom 2b (merge)",
                    False,
                    f"from state {dict(state)}, {first} and {second} are enabled "
                    f"but their union is not",
                )
    return None


def _split_candidates(reaction: Reaction, other: Reaction) -> Optional[Reaction]:
    """The common sub-reaction of two reactions (same signals with the same values).

    ``present_signals()`` is a cached frozenset shared by every caller (the
    axiom sweeps below intersect it O(|enabled|²) times per state), so the
    set algebra here never re-materializes per-call sets.
    """
    common = {
        name
        for name in reaction.present_signals() & other.present_signals()
        if reaction.value(name) == other.value(name)
    }
    if not common:
        return None
    return Reaction(reaction.domain, {name: reaction.value(name) for name in common})


def _axiom_2c_at(checker, state: State) -> Optional[InvariantResult]:
    """(2c): merged reactions sharing a common part can be decomposed sequentially."""
    name = "axiom 2c (decomposition)"
    enabled = checker.non_silent_reactions_from(state)
    for index, first_union in enumerate(enabled):
        for second_union in enabled[index + 1 :]:
            core = _split_candidates(first_union, second_union)
            if core is None:
                continue
            if core == first_union or core == second_union:
                continue
            rest_first = Reaction(
                first_union.domain,
                {
                    name_: first_union.value(name_)
                    for name_ in first_union.present_signals() - core.present_signals()
                },
            )
            rest_second = Reaction(
                second_union.domain,
                {
                    name_: second_union.value(name_)
                    for name_ in second_union.present_signals() - core.present_signals()
                },
            )
            if rest_first.is_silent() or rest_second.is_silent():
                continue
            # Definition 2 quantifies over *independent* reactions: the core and
            # the two remainders must be pairwise independent for (2c) to apply.
            if not independent(rest_first, rest_second):
                continue
            if not checker.enables(state, core):
                return InvariantResult(
                    name,
                    False,
                    f"from state {dict(state)}, the common part {core} of two enabled "
                    f"reactions is not itself enabled",
                )
            after_core = checker.successor(state, core)
            if after_core is None:
                continue
            for rest in (rest_first, rest_second):
                if not checker.enables(after_core, rest):
                    return InvariantResult(
                        name,
                        False,
                        f"from state {dict(state)}, {core} cannot be followed by {rest} "
                        f"although their union is enabled",
                    )
    return None


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
