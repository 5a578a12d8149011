"""Endochrony — implements Definition 1 (traces) and Property 2 (static).

Definition 1: a process is endochronous when flow-equivalent inputs always
lead to clock-equivalent behaviors — the timing of the whole process is
reconstructed from the flows of its inputs, independently of network latency.

Property 2 gives the static criterion used by Polychrony and by this
library: a *compilable* and *hierarchic* process (single-rooted hierarchy) is
endochronous.  Both views are implemented: :func:`verify_endochrony` uses the
static criterion, :func:`check_endochrony_on_traces` validates Definition 1
directly on bounded traces (used in tests to cross-check the criterion on the
paper's examples).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from repro.api.results import Cost, Diagnostic, Verdict, stopwatch
from repro.lang.normalize import NormalizedProcess
from repro.mocc.behaviors import Behavior, clock_equivalent, flow_equivalent
from repro.properties.compilable import ProcessAnalysis
from repro.semantics.denotational import enumerate_behaviors


def verify_endochrony(
    process: NormalizedProcess, analysis: Optional[ProcessAnalysis] = None
) -> Verdict:
    """Property 2 as a :class:`~repro.api.results.Verdict`: compilable ∧ hierarchic."""
    analysis = analysis or ProcessAnalysis(process)
    with stopwatch() as elapsed:
        compilable = analysis.is_compilable()
        roots = analysis.root_count()
    return Verdict(
        prop="endochrony",
        subject=process.name,
        holds=compilable and roots == 1,
        method="static",
        diagnostics=[
            Diagnostic("compilable (Definition 10)", compilable),
            Diagnostic("hierarchic (Definition 11)", roots == 1, f"{roots} roots"),
        ],
        cost=Cost(seconds=elapsed[0]),
        report=analysis,
    )


@dataclass
class EndochronyTraceReport:
    """Outcome of checking Definition 1 on bounded traces."""

    process_name: str
    holds: bool
    behaviors_compared: int = 0
    counterexample: Optional[Tuple[Behavior, Behavior]] = None

    def __str__(self) -> str:
        status = "endochronous on the tested flows" if self.holds else "NOT endochronous"
        return f"{self.process_name}: {status} ({self.behaviors_compared} behavior pairs compared)"


def check_endochrony_on_traces(
    process: NormalizedProcess,
    input_flows: Mapping[str, Sequence[object]],
    max_instants: int = 8,
    signals: Optional[Iterable[str]] = None,
) -> EndochronyTraceReport:
    """Definition 1 on bounded traces.

    All behaviors that consume the given input flows are enumerated; since
    they all carry flow-equivalent inputs (the same flows), endochrony
    requires them to be pairwise clock equivalent once projected on the
    observable signals.
    """
    observable = tuple(signals) if signals is not None else process.interface_signals()
    behaviors = enumerate_behaviors(
        process, input_flows, max_instants=max_instants, signals=observable
    )
    compared = 0
    for left, right in itertools.combinations(behaviors.behaviors(), 2):
        compared += 1
        if flow_equivalent(
            left.restrict(process.inputs), right.restrict(process.inputs)
        ) and not clock_equivalent(left, right):
            return EndochronyTraceReport(
                process_name=process.name,
                holds=False,
                behaviors_compared=compared,
                counterexample=(left, right),
            )
    return EndochronyTraceReport(
        process_name=process.name, holds=True, behaviors_compared=compared
    )
