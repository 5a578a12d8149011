"""Bounded denotational semantics: enumerating the behaviors of a process.

The paper's properties (endochrony, isochrony) quantify over the set of
behaviors of a process.  For checking them on examples, this module
enumerates behaviors up to a bounded number of instants:

* :func:`run_to_completion` executes a process deterministically against a
  :class:`~repro.semantics.environment.ReactiveEnvironment` and returns the
  resulting behavior — the synchronous execution;
* :func:`enumerate_behaviors` explores every way a process can consume
  untimed input flows (a :class:`~repro.semantics.environment.FlowEnvironment`),
  which yields the bounded set of behaviors used for trace-based checks of
  endochrony (Definition 1) and isochrony (Definition 3).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.lang.normalize import NormalizedProcess
from repro.mocc.behaviors import Behavior
from repro.mocc.processes import DenotationalProcess
from repro.mocc.signals import SignalTrace
from repro.semantics.environment import FlowEnvironment, ReactiveEnvironment
from repro.semantics.interpreter import ABSENT, InstantResult, SignalInterpreter


def behavior_from_run(
    results: Sequence[InstantResult],
    signals: Optional[Iterable[str]] = None,
    drop_silent: bool = False,
) -> Behavior:
    """Assemble the behavior of a run from its per-instant results.

    Instant ``i`` of the run becomes tag ``i``.  When ``drop_silent`` is true,
    instants in which none of the selected signals is present do not
    contribute a tag (they are stuttering steps of the selected signals).
    """
    if signals is None and results:
        signals = results[0].presence.keys()
    names = tuple(sorted(signals or ()))
    events: Dict[str, Dict[int, object]] = {name: {} for name in names}
    tag = 0
    for result in results:
        present_here = [name for name in names if result.present(name)]
        if drop_silent and not present_here:
            continue
        for name in present_here:
            events[name][tag] = result.value(name)
        tag += 1
    return Behavior({name: SignalTrace(per_signal) for name, per_signal in events.items()})


def run_to_completion(
    process: NormalizedProcess,
    environment: ReactiveEnvironment,
    assume: Optional[Sequence[Mapping[str, object]]] = None,
) -> List[InstantResult]:
    """Execute a process against a reactive environment, one reaction per instant."""
    interpreter = SignalInterpreter(process)
    results: List[InstantResult] = []
    for index, inputs in enumerate(environment.instants()):
        instant_assume = assume[index] if assume and index < len(assume) else None
        results.append(interpreter.step(inputs=inputs, assume=instant_assume))
    return results


def _input_choices(
    process: NormalizedProcess,
    environment: FlowEnvironment,
    include_silent: bool,
) -> List[Dict[str, object]]:
    """All ways to pick a non-deterministic subset of available inputs for one instant."""
    available = [name for name in process.inputs if environment.available(name)]
    choices: List[Dict[str, object]] = []
    sizes = range(0 if include_silent else 1, len(available) + 1)
    for size in sizes:
        for subset in combinations(available, size):
            assignment: Dict[str, object] = {name: ABSENT for name in process.inputs}
            for name in subset:
                assignment[name] = environment.peek(name)
            choices.append(assignment)
    if not choices and include_silent:
        choices.append({name: ABSENT for name in process.inputs})
    return choices


def enumerate_behaviors(
    process: NormalizedProcess,
    flows: Mapping[str, Sequence[object]],
    max_instants: int = 8,
    signals: Optional[Iterable[str]] = None,
    include_silent: bool = False,
    require_exhausted: bool = True,
    max_behaviors: int = 10_000,
) -> DenotationalProcess:
    """Enumerate the behaviors of ``process`` over the given untimed input flows.

    The exploration tries, at every instant, every subset of inputs that still
    have values available, keeps the branches accepted by the interpreter and
    collects the behaviors reached when either every flow is exhausted (the
    default) or the depth bound is hit.  The resulting finite set of behaviors
    is returned as a :class:`~repro.mocc.processes.DenotationalProcess` over
    ``signals`` (all signals of the process by default).
    """
    names = tuple(sorted(signals)) if signals is not None else process.all_signals()
    interpreter = SignalInterpreter(process)
    collected: List[Behavior] = []
    seen: Set[Behavior] = set()

    def record(results: Sequence[InstantResult]) -> None:
        behavior = behavior_from_run(results, names, drop_silent=True)
        if behavior not in seen:
            seen.add(behavior)
            collected.append(behavior)

    def explore(environment: FlowEnvironment, trace: List[InstantResult], depth: int) -> None:
        if len(collected) >= max_behaviors:
            return
        if environment.exhausted():
            record(trace)
            return
        if depth >= max_instants:
            if not require_exhausted:
                record(trace)
            return
        progressed = False
        for assignment in _input_choices(process, environment, include_silent):
            saved_state = interpreter.snapshot_state()
            result = interpreter.try_step(inputs=assignment, commit=True)
            if result is None:
                interpreter.restore_state(saved_state)
                continue
            child_environment = environment.copy()
            for name, value in assignment.items():
                if value is not ABSENT:
                    child_environment.pop(name)
            progressed = True
            trace.append(result)
            explore(child_environment, trace, depth + 1)
            trace.pop()
            interpreter.restore_state(saved_state)
        if not progressed and not require_exhausted:
            record(trace)

    explore(FlowEnvironment(flows), [], 0)
    return DenotationalProcess(names, collected)
