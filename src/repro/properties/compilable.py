"""The analysis pipeline — implements compilability (Definition 10) and the
well-clocked / acyclic clauses it is built from (Definitions 7 and 8).

:class:`ProcessAnalysis` bundles every artefact the paper's analyses build
from a process — timing relations, clock algebra, hierarchy, disjunctive
form, scheduling graph — computing each lazily and exactly once.  Every other
property module works from a :class:`ProcessAnalysis`.

A process is *compilable* (Definition 10) when it is acyclic and its
relations are well-clocked (well-formed hierarchy + disjunctive form);
Property 1 states that a compilable process is reactive and deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.api.results import Cost, Diagnostic, Verdict, stopwatch
from repro.bdd.bdd import BDDManager
from repro.clocks.algebra import ClockAlgebra
from repro.clocks.disjunctive import DisjunctiveFormResult, to_disjunctive_form
from repro.clocks.hierarchy import ClockHierarchy, build_hierarchy
from repro.clocks.inference import infer_timing_relations
from repro.clocks.relations import TimingRelations
from repro.lang.ast import ProcessDefinition
from repro.lang.normalize import NormalizedProcess, normalize
from repro.sched.closure import is_acyclic
from repro.sched.graph import SchedulingGraph
from repro.sched.reinforce import reinforce


class ProcessAnalysis:
    """Lazily computed analysis artefacts and verdicts of one normalized process."""

    def __init__(self, process: NormalizedProcess, manager: Optional[BDDManager] = None):
        self.process = process
        self._manager = manager
        self._relations: Optional[TimingRelations] = None
        self._algebra: Optional[ClockAlgebra] = None
        self._hierarchy: Optional[ClockHierarchy] = None
        self._disjunctive: Optional[DisjunctiveFormResult] = None
        self._graph: Optional[SchedulingGraph] = None
        self._reinforced: Optional[SchedulingGraph] = None
        self._well_clocked: Optional[bool] = None
        self._acyclic: Optional[bool] = None

    # -- constructors -----------------------------------------------------------
    @classmethod
    def of(cls, definition: ProcessDefinition, registry=None) -> "ProcessAnalysis":
        """Deprecated alias of :func:`repro.api.session.analyze` (one code path)."""
        warnings.warn(
            "ProcessAnalysis.of() is deprecated; use repro.analyze() or a "
            "repro.api.Design session instead",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.api.session import analyze

        return analyze(definition, registry)

    # -- artefacts ----------------------------------------------------------------
    @property
    def relations(self) -> TimingRelations:
        if self._relations is None:
            self._relations = infer_timing_relations(self.process)
        return self._relations

    @property
    def algebra(self) -> ClockAlgebra:
        if self._algebra is None:
            self._algebra = ClockAlgebra(self.process, self.relations, self._manager)
        return self._algebra

    @property
    def hierarchy(self) -> ClockHierarchy:
        if self._hierarchy is None:
            self._hierarchy = build_hierarchy(self.process, self.relations, self.algebra)
        return self._hierarchy

    @property
    def disjunctive(self) -> DisjunctiveFormResult:
        if self._disjunctive is None:
            self._disjunctive = to_disjunctive_form(self.process, self.relations, self.algebra)
        return self._disjunctive

    @property
    def scheduling_graph(self) -> SchedulingGraph:
        if self._graph is None:
            self._graph = SchedulingGraph.from_relations(
                self.process, self.disjunctive.relations, self.algebra
            )
        return self._graph

    @property
    def reinforced_graph(self) -> SchedulingGraph:
        if self._reinforced is None:
            self._reinforced = reinforce(
                self.scheduling_graph, self.disjunctive.relations, self.process
            )
        return self._reinforced

    # -- verdicts -------------------------------------------------------------------
    def is_well_clocked(self) -> bool:
        """Definition 7: well-formed hierarchy and disjunctive relations."""
        if self._well_clocked is None:
            self._well_clocked = (
                self.hierarchy.well_formed() and self.disjunctive.is_disjunctive()
            )
        return self._well_clocked

    def is_acyclic(self) -> bool:
        """Definition 8 on the reinforced scheduling graph."""
        if self._acyclic is None:
            self._acyclic = is_acyclic(self.reinforced_graph)
        return self._acyclic

    def is_compilable(self) -> bool:
        """Definition 10: acyclic and well-clocked."""
        return self.is_well_clocked() and self.is_acyclic()

    def is_hierarchic(self) -> bool:
        """Definition 11: the clock hierarchy has a unique root."""
        return self.hierarchy.is_hierarchic()

    def root_count(self) -> int:
        return self.hierarchy.root_count()

    def summary(self) -> Dict[str, object]:
        """A dictionary of the main verdicts, convenient for reports and tests."""
        return {
            "process": self.process.name,
            "signals": len(self.process.all_signals()),
            "equations": len(self.process.equations),
            "roots": self.root_count(),
            "well_clocked": self.is_well_clocked(),
            "acyclic": self.is_acyclic(),
            "compilable": self.is_compilable(),
            "hierarchic": self.is_hierarchic(),
        }


def verify_compilable(
    process: Union[NormalizedProcess, ProcessAnalysis],
) -> Verdict:
    """Definition 10 as a :class:`~repro.api.results.Verdict`."""
    analysis = process if isinstance(process, ProcessAnalysis) else ProcessAnalysis(process)
    with stopwatch() as elapsed:
        well_formed = analysis.hierarchy.well_formed()
        disjunctive = analysis.disjunctive.is_disjunctive()
        acyclic = analysis.is_acyclic()
    verdict = Verdict(
        prop="compilable",
        subject=analysis.process.name,
        holds=well_formed and disjunctive and acyclic,
        method="static",
        diagnostics=[
            Diagnostic("well-formed hierarchy (Definition 7)", well_formed),
            Diagnostic("disjunctive form (Definition 7)", disjunctive),
            Diagnostic("acyclic reinforced graph (Definition 8)", acyclic),
        ],
        cost=Cost(seconds=elapsed[0]),
        report=analysis,
    )
    return verdict


def verify_hierarchic(process: Union[NormalizedProcess, ProcessAnalysis]) -> Verdict:
    """Definition 11 as a :class:`~repro.api.results.Verdict`."""
    analysis = process if isinstance(process, ProcessAnalysis) else ProcessAnalysis(process)
    with stopwatch() as elapsed:
        roots = analysis.root_count()
    verdict = Verdict(
        prop="hierarchic",
        subject=analysis.process.name,
        holds=roots == 1,
        method="static",
        diagnostics=[
            Diagnostic("unique hierarchy root (Definition 11)", roots == 1, f"{roots} roots")
        ],
        cost=Cost(seconds=elapsed[0]),
        report=analysis,
    )
    return verdict


def is_compilable(process: NormalizedProcess) -> bool:
    """Definition 10 as a standalone predicate (shim over :func:`verify_compilable`).

    .. deprecated:: use ``Design.verify("compilable")`` or
       :func:`verify_compilable` — the Verdict carries the same boolean plus
       the per-clause diagnostics.
    """
    warnings.warn(
        "is_compilable() is deprecated; use Design.verify('compilable') or "
        "verify_compilable() instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return verify_compilable(process).holds
