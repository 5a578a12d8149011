"""Non-blocking processes — implements Definition 4 of the paper.

A process is non-blocking when, from every reachable state, it admits at
least one (possibly stuttering) reaction.  In the reaction LTS of the boolean
abstraction this is simply the absence of deadlock states; the silent
reaction is admissible whenever the process puts no lower bound on activity,
so blocking only arises from contradictory timing relations.

Theorem 1 makes this check free for weakly hierarchic compositions; the
model-checking route runs on an :class:`~repro.mc.onthefly.OnTheFlyChecker`,
which stops at the first deadlock it reaches instead of materializing the
full product first.
"""

from __future__ import annotations

from typing import Optional

from repro.api.results import Cost, Diagnostic, Verdict, diagnostics_from_invariants, stopwatch
from repro.clocks.hierarchy import ClockHierarchy
from repro.lang.normalize import NormalizedProcess
from repro.mc.onthefly import InvariantResult, LazyReactionLTS, OnTheFlyChecker


def verify_non_blocking(
    process: NormalizedProcess,
    hierarchy: Optional[ClockHierarchy] = None,
    max_states: int = 512,
    checker: Optional[OnTheFlyChecker] = None,
) -> Verdict:
    """Definition 4 as a :class:`~repro.api.results.Verdict`.

    The search terminates on the first deadlock state and the verdict's
    :class:`Cost` reports how many states this query visited against the
    ``max_states`` bound.  ``checker`` defaults to the interpreter-backed
    engine over ``process``.
    """
    with stopwatch() as elapsed:
        if checker is None:
            checker = OnTheFlyChecker(LazyReactionLTS(process, hierarchy), max_states)
        # count the states this query visits (memo hits included): the
        # search stops at the first deadlock it reaches
        states = 0
        transitions = 0
        deadlock = None
        for state in checker.iter_states():
            states += 1
            outgoing = checker.transitions_from(state)
            transitions += len(outgoing)
            if not outgoing:
                deadlock = state
                break
        if deadlock is not None:
            result = InvariantResult(
                "non-blocking",
                False,
                f"state {dict(deadlock)} has no reaction at all",
            )
        else:
            result = InvariantResult("non-blocking", True)
    diagnostics = diagnostics_from_invariants([result])
    if checker.truncated and result.holds:
        diagnostics.append(
            Diagnostic(
                "exploration cut by the state bound — the verdict is bounded, "
                "not a proof; raise max_states for a conclusive answer",
                True,
                f"bound {checker.max_states}",
            )
        )
    return Verdict(
        prop="non-blocking",
        subject=process.name,
        holds=result.holds,
        method="explicit",
        diagnostics=diagnostics,
        cost=Cost(
            seconds=elapsed[0],
            states=states,
            transitions=transitions,
            state_bound=checker.max_states,
        ),
        report=result,
    )
