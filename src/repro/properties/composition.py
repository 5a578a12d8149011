"""The compositional design criterion — implements Definition 12 and Theorem 1.

This is the paper's primary contribution: instead of model-checking weak
endochrony of a composition (exponential in the state space), check

1. that every component is *compilable and hierarchic* — hence endochronous
   (Property 2), hence weakly endochronous;
2. that the composition is *well-clocked and acyclic* — which makes it
   non-blocking;

and conclude (Theorem 1) that the composition is weakly endochronous and that
the components are isochronous: running them asynchronously yields the same
flows as the synchronous product.

:func:`check_weakly_hierarchic` performs the whole pipeline on a list of
component processes and returns a :class:`CompositionVerdict` carrying the
per-component and global diagnoses, including the clock constraints between
components that the code generator of Section 5 turns into synchronization
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.api.results import Cost, Diagnostic, Verdict, stopwatch
from repro.clocks.expressions import format_clock_expression
from repro.lang.ast import ClockExpressionSyntax, ClockFalse, ClockOf, ClockTrue
from repro.lang.normalize import NormalizedProcess
from repro.properties.compilable import ProcessAnalysis

#: artifact-store object kinds of the criterion's two persisted stages
DIAGNOSIS_KIND = "diagnosis"
OBLIGATIONS_KIND = "obligations"

#: one reported clock constraint: two equal clocks, each a signal clock
#: ``x^`` or a boolean sampling ``[x]`` / ``[¬x]``
ClockPair = Tuple[ClockExpressionSyntax, ClockExpressionSyntax]

#: the persisted ``[kind, name]`` form of each side of a :data:`ClockPair`
_CLOCK_KINDS = {"of": ClockOf, "true": ClockTrue, "false": ClockFalse}
_KIND_OF_CLOCK = {clock_type: kind for kind, clock_type in _CLOCK_KINDS.items()}


@dataclass
class ComponentDiagnosis:
    """Per-component verdicts of the weakly hierarchic criterion.

    This is the paper's *per-component obligation* — endochrony via
    Property 2 — and, being α-invariant booleans, it is a persistent
    artifact: keyed by the component's content digest, it survives
    composition, edits of *other* components, and session restarts.
    """

    name: str
    compilable: bool
    hierarchic: bool
    roots: int

    def endochronous(self) -> bool:
        """Property 2: compilable and hierarchic implies endochronous."""
        return self.compilable and self.hierarchic

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "compilable": self.compilable,
            "hierarchic": self.hierarchic,
            "roots": self.roots,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ComponentDiagnosis":
        return cls(
            name=str(payload["name"]),
            compilable=bool(payload["compilable"]),
            hierarchic=bool(payload["hierarchic"]),
            roots=int(payload["roots"]),
        )

    def __str__(self) -> str:
        verdict = "endochronous" if self.endochronous() else "NOT endochronous"
        return (
            f"{self.name}: {verdict} "
            f"(compilable={self.compilable}, roots={self.roots})"
        )


@dataclass(frozen=True)
class CompositionObligations:
    """The composition-level clauses of Definition 12, as one artifact.

    Everything the criterion needs from the *composed* process:
    well-clockedness, acyclicity, the root count, the shared interface
    signals and the clock constraints between components (Section 5.1's
    report, the isochrony obligations the controller of Section 5.2 turns
    into rendez-vous points).  The constraints are kept as clock pairs, each
    side persisted as ``[kind, name]``, so the controller reads them off this
    artifact without any clock calculus.  Keyed by the design digest —
    editing any component moves the key, so exactly this artifact (and
    nothing per-component) is recomputed after an edit.
    """

    well_clocked: bool
    acyclic: bool
    roots: int
    shared_signals: Tuple[str, ...]
    constraints: Tuple[ClockPair, ...]

    def to_payload(self) -> Dict[str, object]:
        return {
            "well_clocked": self.well_clocked,
            "acyclic": self.acyclic,
            "roots": self.roots,
            "shared_signals": list(self.shared_signals),
            "constraints": [
                [[_KIND_OF_CLOCK[type(clock)], clock.name] for clock in pair]
                for pair in self.constraints
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CompositionObligations":
        """Decode a payload; one without clock pairs raises ``KeyError``."""
        return cls(
            well_clocked=bool(payload["well_clocked"]),
            acyclic=bool(payload["acyclic"]),
            roots=int(payload["roots"]),
            shared_signals=tuple(payload["shared_signals"]),
            constraints=tuple(
                tuple(_CLOCK_KINDS[kind](str(name)) for kind, name in (left, right))
                for left, right in payload["constraints"]
            ),
        )


@dataclass
class CompositionVerdict:
    """The outcome of the static compositional criterion.

    Assembled from the criterion's artifact nodes, so a warm store yields it
    without building any :class:`ProcessAnalysis`.  ``constraints`` is the
    one clock-constraint report of the composition: the controller synthesis
    of Section 5.2 reads its pairs, and :attr:`reported_constraints` renders
    them in the paper's notation.
    """

    components: List[ComponentDiagnosis] = field(default_factory=list)
    composition_name: str = ""
    composition_well_clocked: bool = False
    composition_acyclic: bool = False
    composition_roots: int = 0
    shared_signals: List[str] = field(default_factory=list)
    constraints: List[ClockPair] = field(default_factory=list)

    @property
    def reported_constraints(self) -> List[str]:
        """The clock constraints as the clock calculus reports them, e.g. ``[¬a] = [b]``."""
        return [
            f"{format_clock_expression(left)} = {format_clock_expression(right)}"
            for left, right in self.constraints
        ]

    def components_endochronous(self) -> bool:
        return all(component.endochronous() for component in self.components)

    def weakly_hierarchic(self) -> bool:
        """Definition 12."""
        return (
            self.components_endochronous()
            and self.composition_well_clocked
            and self.composition_acyclic
        )

    def weakly_endochronous(self) -> bool:
        """Theorem 1 (1): a weakly hierarchic process is weakly endochronous."""
        return self.weakly_hierarchic()

    def isochronous(self) -> bool:
        """Theorem 1 (2): the components of a weakly hierarchic composition are isochronous."""
        return self.weakly_hierarchic()

    def endochronous_composition(self) -> bool:
        """Whether the composition itself is single-rooted (not required by the criterion)."""
        return self.composition_roots == 1

    def __str__(self) -> str:
        lines = [f"compositional criterion for {self.composition_name}:"]
        lines.extend(f"  {component}" for component in self.components)
        lines.append(
            f"  composition: well-clocked={self.composition_well_clocked}, "
            f"acyclic={self.composition_acyclic}, roots={self.composition_roots}"
        )
        reported = self.reported_constraints
        if reported:
            lines.append("  reported clock constraints:")
            lines.extend(f"    {constraint}" for constraint in reported)
        verdict = (
            "weakly hierarchic: weakly endochronous and isochronous (Theorem 1)"
            if self.weakly_hierarchic()
            else "criterion NOT satisfied"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _shared_signals(components: Sequence[NormalizedProcess]) -> List[str]:
    """Signals that appear on the interface of at least two components."""
    counts: Dict[str, int] = {}
    for component in components:
        for name in set(component.interface_signals()):
            counts[name] = counts.get(name, 0) + 1
    return sorted(name for name, count in counts.items() if count > 1)


def _interface_clock_constraints(
    analysis: ProcessAnalysis, components: Sequence[NormalizedProcess], shared: Iterable[str]
) -> List[ClockPair]:
    """Clock equalities between the components implied by the composition.

    These are the constraints Polychrony *reports* (Section 5.1) — e.g.
    ``[¬a] = [b]`` for the producer/consumer pair — and that the synthesized
    controller of Section 5.2 turns into rendez-vous points.
    """
    candidate_clocks: List[ClockExpressionSyntax] = []
    boolean = set(analysis.process.boolean_signals())
    inputs_of_components: Set[str] = set()
    for component in components:
        inputs_of_components.update(component.inputs)
    for name in sorted(inputs_of_components | set(shared)):
        if name not in set(analysis.process.all_signals()):
            continue
        candidate_clocks.append(ClockOf(name))
        if name in boolean:
            candidate_clocks.append(ClockTrue(name))
            candidate_clocks.append(ClockFalse(name))
    return [
        (left, right)
        for left, right in analysis.hierarchy.implied_equalities(candidate_clocks)
        # a pair about one signal is trivial
        if left.free_signals() != right.free_signals()
    ]


def _diagnose_component(analysis: ProcessAnalysis, name: str) -> ComponentDiagnosis:
    return ComponentDiagnosis(
        name=name,
        compilable=analysis.is_compilable(),
        hierarchic=analysis.is_hierarchic(),
        roots=analysis.root_count(),
    )


def component_diagnosis(context, component: NormalizedProcess) -> ComponentDiagnosis:
    """The per-component obligation of Definition 12, as an artifact node.

    Keyed by the component's content digest and persisted (the verdicts are
    α-invariant booleans): a warm store answers without building the
    component's :class:`ProcessAnalysis` at all, and an edit of one
    component leaves every other component's diagnosis addressed and warm —
    the paper's compositionality theorem as a cache policy.
    """
    return context.graph.resolve(
        "diagnosis",
        context.digest_of(component),
        compute=lambda: _diagnose_component(context.analysis(component), component.name),
        kind=DIAGNOSIS_KIND,
        encode=ComponentDiagnosis.to_payload,
        decode=ComponentDiagnosis.from_payload,
        keep=(component,),
    )


def composition_obligations(
    context,
    components: Sequence[NormalizedProcess],
    composition: NormalizedProcess,
) -> CompositionObligations:
    """The composition-level clauses of Definition 12, as an artifact node.

    Keyed by the *design* digest (the digest of the component set) plus the
    composition's own content digest: an edit of any component moves the
    key and this — only this — recomputes among the composition-level
    artifacts, together with the edited component's own stages; and a
    custom composition (one that differs from the plain compose of the
    components, e.g. with extra constraints) gets its own node instead of
    adopting the default composition's answers.
    """
    def compute() -> CompositionObligations:
        analysis = context.analysis(composition)
        shared = _shared_signals(components)
        return CompositionObligations(
            well_clocked=analysis.is_well_clocked(),
            acyclic=analysis.is_acyclic(),
            roots=analysis.root_count(),
            shared_signals=tuple(shared),
            constraints=tuple(_interface_clock_constraints(analysis, components, shared)),
        )

    composition_identity = context.digest_of(composition)
    return context.graph.resolve(
        "obligations",
        context.design_digest(components),
        composition_identity,
        compute=compute,
        kind=f"{OBLIGATIONS_KIND}-{composition_identity[:16]}",
        encode=CompositionObligations.to_payload,
        decode=CompositionObligations.from_payload,
        keep=tuple(components) + (composition,),
    )


def check_weakly_hierarchic(
    components: Sequence[NormalizedProcess],
    composition: Optional[NormalizedProcess] = None,
    composition_name: Optional[str] = None,
    context=None,
) -> CompositionVerdict:
    """Definition 12 over explicit components and (optionally) their composition.

    Without ``composition`` the components are composed by name-matching;
    ``composition_name`` renames the composition.  The per-component
    diagnoses and the composition-level obligations are artifact nodes of
    ``context``'s graph (a :class:`repro.api.session.AnalysisContext`, a
    fresh one when ``None``) — reused from its memo or its attached store
    instead of being rebuilt — so repeated checks over the same components
    share all clock calculus work, and a check after a one-component edit
    recomputes only the edited component's diagnosis plus the obligations.
    """
    if not components:
        raise ValueError("the criterion needs at least one component")
    if context is None:
        from repro.api.session import AnalysisContext  # the session imports this module

        context = AnalysisContext()
    if composition is None:
        composition = reduce(lambda left, right: left.compose(right), components)
    if composition_name:
        composition = NormalizedProcess(
            name=composition_name,
            inputs=composition.inputs,
            outputs=composition.outputs,
            locals=composition.locals,
            equations=composition.equations,
            types=dict(composition.types),
        )

    diagnoses = [component_diagnosis(context, component) for component in components]
    obligations = composition_obligations(context, components, composition)
    return CompositionVerdict(
        components=diagnoses,
        composition_name=composition.name,
        composition_well_clocked=obligations.well_clocked,
        composition_acyclic=obligations.acyclic,
        composition_roots=obligations.roots,
        shared_signals=list(obligations.shared_signals),
        constraints=list(obligations.constraints),
    )


def verify_weakly_hierarchic(
    components: Sequence[NormalizedProcess],
    composition: Optional[NormalizedProcess] = None,
    composition_name: Optional[str] = None,
    context=None,
) -> Verdict:
    """Definition 12 / Theorem 1 as a :class:`~repro.api.results.Verdict`.

    The underlying :class:`CompositionVerdict` (with its per-component
    diagnoses and reported clock constraints) is kept in ``report``.
    """
    with stopwatch() as elapsed:
        report = check_weakly_hierarchic(components, composition, composition_name, context)
    diagnostics = [
        Diagnostic(
            f"component {component.name} endochronous (Property 2)",
            component.endochronous(),
            f"compilable={component.compilable}, roots={component.roots}",
        )
        for component in report.components
    ]
    diagnostics.append(
        Diagnostic("composition well-clocked (Definition 7)", report.composition_well_clocked)
    )
    diagnostics.append(
        Diagnostic("composition acyclic (Definition 8)", report.composition_acyclic)
    )
    reported = report.reported_constraints
    if reported:
        diagnostics.append(
            Diagnostic(
                "reported clock constraints",
                True,
                "; ".join(reported),
                witness=tuple(reported),
            )
        )
    return Verdict(
        prop="weakly-hierarchic",
        subject=report.composition_name,
        holds=report.weakly_hierarchic(),
        method="static",
        diagnostics=diagnostics,
        cost=Cost(seconds=elapsed[0], components=len(report.components)),
        report=report,
    )
