"""Isochrony — implements Definition 3 of the paper, on bounded traces.

Two processes are isochronous when their synchronous composition and their
asynchronous composition have the same behaviors up to flow equivalence:
nothing is lost (and nothing is invented) by letting the two components run
on unsynchronized clocks and exchange values through FIFOs.  Theorem 1 (2)
obtains this for free for weakly hierarchic compositions; this module is the
bounded-trace oracle the criterion is cross-checked against.

The check below enumerates the bounded behaviors of the two components over
given input flows and compares the flow-equivalence classes of the shared
and visible signals of the two compositions.  The synchronous side is the
composed process itself.  The asynchronous side is *not* materialized:
candidate gluings (:func:`~repro.mocc.processes.iter_asynchronous_gluings`)
are streamed one by one and the comparison stops at the first asynchronous
flow class missing synchronously — the denotational analogue of the
on-the-fly engine of :mod:`repro.mc.onthefly`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.api.results import Cost, Diagnostic, Verdict, stopwatch
from repro.lang.normalize import NormalizedProcess
from repro.mocc.behaviors import Behavior
from repro.mocc.processes import DenotationalProcess, iter_asynchronous_gluings
from repro.semantics.denotational import enumerate_behaviors


@dataclass
class IsochronyReport:
    """Result of the bounded isochrony comparison.

    ``complete`` is ``False`` when the comparison stopped at the first
    missing class: ``asynchronous_classes`` then counts the classes streamed
    up to the counterexample, not the full set.
    """

    left_name: str
    right_name: str
    holds: bool
    synchronous_classes: int = 0
    asynchronous_classes: int = 0
    missing_in_synchronous: List[Tuple] = field(default_factory=list)
    complete: bool = True

    def __str__(self) -> str:
        verdict = "isochronous" if self.holds else "NOT isochronous"
        return (
            f"{self.left_name} || {self.right_name}: {verdict} "
            f"(sync {self.synchronous_classes} flow classes, "
            f"async {self.asynchronous_classes} flow classes)"
        )


def _observable_signals(
    left: NormalizedProcess, right: NormalizedProcess, signals: Optional[Iterable[str]]
) -> Tuple[str, ...]:
    if signals is not None:
        return tuple(sorted(signals))
    visible = set(left.interface_signals()) | set(right.interface_signals())
    return tuple(sorted(visible))


def _flow_class_key(behavior: Behavior) -> Tuple:
    """The canonical flow-class key of one behavior (as in ``flow_classes``)."""
    return tuple(sorted((name, values) for name, values in behavior.flows().items()))


def check_isochrony(
    left: NormalizedProcess,
    right: NormalizedProcess,
    input_flows: Mapping[str, Sequence[object]],
    max_instants: int = 8,
    signals: Optional[Iterable[str]] = None,
) -> IsochronyReport:
    """Definition 3 on bounded traces: ``p | q ≈ p ‖ q``.

    ``input_flows`` gives the untimed flows of the signals that are inputs of
    the composition (inputs of either component not produced by the other).
    The comparison is on flow-equivalence classes: every flow of values
    reachable asynchronously must be reachable synchronously and conversely.
    The asynchronous gluings are streamed and the comparison returns at the
    first class missing synchronously, so a violating composition never pays
    for the full asynchronous product.  A comparison in which either side
    has no flow class at all does not hold: it compared nothing.

    The producer of the shared signals is enumerated first and feeds the
    consumer, whichever of the two the caller names first.  When each
    component consumes signals the other produces, ``left`` is enumerated
    first and is not fed the signals ``right`` produces.
    """
    if set(right.outputs) & set(left.inputs) and not set(left.outputs) & set(right.inputs):
        report = check_isochrony(right, left, input_flows, max_instants, signals)
        report.left_name, report.right_name = left.name, right.name
        return report
    observable = _observable_signals(left, right, signals)

    left_inputs = {
        name: values for name, values in input_flows.items() if name in left.inputs
    }
    right_inputs = {
        name: values for name, values in input_flows.items() if name in right.inputs
    }
    # Signals produced by one component and consumed by the other are *not*
    # free inputs: the producing side constrains their flow.  They are left
    # out of the per-component enumeration inputs only if produced locally.
    shared_produced_by_left = set(left.outputs) & set(right.inputs)
    shared_produced_by_right = set(right.outputs) & set(left.inputs)
    for name in shared_produced_by_left:
        right_inputs.pop(name, None)
    for name in shared_produced_by_right:
        left_inputs.pop(name, None)

    # Synchronous side: the behaviors of the composition p | q itself, i.e. the
    # executions in which the two components react on a common logical time.
    composed = left.compose(right)
    composed_inputs = {
        name: values for name, values in input_flows.items() if name in composed.inputs
    }
    synchronous = enumerate_behaviors(
        composed,
        composed_inputs,
        max_instants=max_instants,
        signals=tuple(name for name in observable if name in composed.all_signals()),
    )

    # Asynchronous side: each component is enumerated against untimed flows
    # and the results are glued by flow equivalence on the interface (p ‖ q).
    # The consumer reads the shared flows of one producer behavior at a time:
    # flows taken signal by signal from different producer behaviors form a
    # combination no producer emits, and nothing would glue to it.
    left_process = enumerate_behaviors(
        left,
        left_inputs,
        max_instants=max_instants,
        signals=tuple(sorted(set(left.interface_signals()) & set(observable))),
    )
    fed = sorted(shared_produced_by_left & left_process.domain)
    right_signals = tuple(sorted(set(right.interface_signals()) & set(observable)))
    right_behaviors: List[Behavior] = []
    produced: Set[Tuple[Tuple[object, ...], ...]] = set()
    for behavior in left_process:
        shared_flows = tuple(behavior[name].values for name in fed)
        if shared_flows in produced:
            continue
        produced.add(shared_flows)
        right_behaviors.extend(
            enumerate_behaviors(
                right,
                {**right_inputs, **dict(zip(fed, shared_flows))},
                max_instants=max_instants,
                signals=right_signals,
            )
        )
    right_process = DenotationalProcess(right_signals, right_behaviors)
    synchronous_classes = synchronous.restrict(observable).flow_classes()

    seen: Set[Tuple] = set()
    for gluing in iter_asynchronous_gluings(left_process, right_process):
        key = _flow_class_key(gluing.restrict(observable))
        if key in seen:
            continue
        seen.add(key)
        if key not in synchronous_classes:
            return IsochronyReport(
                left_name=left.name,
                right_name=right.name,
                holds=False,
                synchronous_classes=len(synchronous_classes),
                asynchronous_classes=len(seen),
                missing_in_synchronous=[key],
                complete=False,
            )
    return IsochronyReport(
        left_name=left.name,
        right_name=right.name,
        holds=bool(synchronous_classes) and bool(seen),
        synchronous_classes=len(synchronous_classes),
        asynchronous_classes=len(seen),
    )


def verify_isochrony(
    left: NormalizedProcess,
    right: NormalizedProcess,
    input_flows: Mapping[str, Sequence[object]],
    max_instants: int = 8,
    signals: Optional[Iterable[str]] = None,
) -> Verdict:
    """Definition 3 on bounded traces as a :class:`~repro.api.results.Verdict`."""
    with stopwatch() as elapsed:
        report = check_isochrony(left, right, input_flows, max_instants, signals)
    witness = report.missing_in_synchronous[0] if report.missing_in_synchronous else None
    return Verdict(
        prop="isochrony",
        subject=f"{report.left_name} || {report.right_name}",
        holds=report.holds,
        method="explicit",
        diagnostics=[
            Diagnostic(
                "async flows ⊆ sync flows (Definition 3)",
                report.holds,
                f"sync {report.synchronous_classes} / async "
                f"{report.asynchronous_classes} flow classes",
                witness=witness,
            )
        ],
        cost=Cost(seconds=elapsed[0], components=2),
        report=report,
    )
