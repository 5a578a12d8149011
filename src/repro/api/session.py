"""The :class:`Design` session — one entry point for the paper's pipeline.

The paper's flow is a single story: normalize a Signal process, build its
clock hierarchy, check the weakly hierarchic criterion of Definition 12 /
Theorem 1, then generate sequential, controlled or concurrent code.  A
:class:`Design` holds that story as a session: components are added once,
every analysis artefact (normalization, timing relations, clock algebra,
hierarchy, scheduling graph, reaction LTS) is computed once and shared by
all subsequent queries through an :class:`AnalysisContext`, and one BDD
manager backs every clock calculus of the session.

    design = Design.from_source(source)
    design.verify("weak-endochrony")          # static criterion, MC fallback
    design.compile("controlled").run(inputs)  # Section 5.2 deployment

The same context makes composing N components cheap: the per-component
analyses built for the compositional criterion are the very objects reused
by code generation and by later verification calls, instead of being
re-derived per query.

Batched workloads go through :meth:`Design.verify_many` (several properties
in one call; ``parallel=N`` shards the independent queries over a process
pool, see :mod:`repro.api.parallel`) and :meth:`Design.map_components` (one
property on every component).  Model-checking
queries run on the on-the-fly engine of :mod:`repro.mc.onthefly`, served
and memoized by :meth:`AnalysisContext.onthefly`.

Since the artifact-graph refactor, every stage of the pipeline resolves
through one :class:`~repro.api.artifacts.ArtifactGraph` keyed by content
digests, with the :class:`~repro.service.store.ArtifactStore` as optional
persistent tier: warm stores accelerate every stage, and component edits
(:meth:`Design.replace_component`) invalidate only the digests that
actually changed.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.artifacts import ArtifactGraph, verdict_kind
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.bdd.bdd import BDDManager
from repro.clocks.algebra import clock_variables
from repro.clocks.order import VariableOrder, structural_order
from repro.lang.ast import Composition, Instantiation, ProcessDefinition, Restriction, Statement
from repro.lang.builder import ProcessBuilder
from repro.lang.normalize import NormalizedProcess, normalize
from repro.lang.parser import parse_program
from repro.lang.printer import (
    digest_of_forms,
    format_canonical,
    options_fingerprint,
    process_fingerprint,
)
from repro.mc.compiled import (
    CompiledAbstraction,
    compiled_artifact_payload,
    compiled_from_artifact,
)
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker, ProductLTS
from repro.mc.transition import ReactionLTS
from repro.properties.compilable import ProcessAnalysis
from repro.properties.composition import CompositionVerdict, check_weakly_hierarchic

#: everything a Design accepts as a component
ProcessLike = Union[ProcessDefinition, NormalizedProcess, ProcessBuilder, str]


class AnalysisContext:
    """Shared pipeline stages over one :class:`~repro.api.artifacts.ArtifactGraph`.

    All queries issued through the same context — by one :class:`Design` or by
    several designs sharing the context — reuse each other's work: every
    pipeline product (normalization, :class:`ProcessAnalysis`, clock
    hierarchy, compiled step relation, explored LTSs, on-the-fly engines) is
    a node of the context's artifact graph, keyed by the process's content
    digest, with dependency edges recorded between stages.  Attaching an
    artifact store (:attr:`artifact_cache`) makes the persistent stages —
    compiled relations, per-component diagnoses, composition obligations,
    verdicts — reload across sessions and processes, so a warm store
    accelerates *every* stage, not just compilation.

    The memory tier additionally keys name-carrying artifacts by an exact
    (α-sensitive) fingerprint: two processes that differ only in hidden
    local spellings share a content digest but must not share analyses or
    relations that name concrete signals (see
    :func:`repro.lang.printer.process_fingerprint`).
    """

    def __init__(
        self,
        registry: Optional[Mapping[str, ProcessDefinition]] = None,
        manager: Optional[BDDManager] = None,
        artifact_cache: Optional[object] = None,
    ):
        self.manager = manager or BDDManager()
        #: the artifact graph every stage of this context resolves through
        self.graph = ArtifactGraph(store=artifact_cache)
        self.registry: Dict[str, ProcessDefinition] = dict(registry or {})
        # id() keys need the keyed objects kept alive, hence the paired dicts.
        self._processes: Dict[int, NormalizedProcess] = {}
        self._digests: Dict[int, str] = {}
        self._fingerprints: Dict[int, str] = {}
        self._canonical_forms: Dict[int, str] = {}
        # product components are retyped under the composition's unified
        # types and re-created per product construction; (equation tuple
        # identity, effective types) picks one stable representative
        self._retyped: Dict[Tuple, NormalizedProcess] = {}
        # digest -> number of live designs addressing it (see retain_digest)
        self._digest_refs: Dict[str, int] = {}
        # process digest -> the component list of the live design it belongs
        # to, whose structural order its analysis is declared under
        self._design_components: Dict[str, Sequence[NormalizedProcess]] = {}

    @property
    def artifact_cache(self) -> Optional[object]:
        """The persistent tier of the artifact graph (an
        :class:`~repro.service.store.ArtifactStore` or anything with
        ``get(digest, kind)`` / ``put(digest, kind, payload)``)."""
        return self.graph.store

    @artifact_cache.setter
    def artifact_cache(self, store: Optional[object]) -> None:
        self.graph.store = store

    # -- registry ---------------------------------------------------------------
    def register(
        self, definitions: Union[ProcessDefinition, Mapping[str, ProcessDefinition]]
    ) -> None:
        """Add definitions that instantiations may reference during normalization."""
        if isinstance(definitions, ProcessDefinition):
            self.registry[definitions.name] = definitions
        else:
            self.registry.update(definitions)

    # -- content identities -------------------------------------------------------
    def digest_of(self, process: ProcessLike) -> str:
        """The α-invariant content digest of a process, memoized by identity.

        Hashes the memoized canonical form, so each process is printed once
        (the same bytes as :func:`repro.lang.printer.process_digest`)."""
        normalized_process = self.normalized(process)
        key = id(normalized_process)
        digest = self._digests.get(key)
        if digest is None:
            digest = digest_of_forms([self.canonical_form_of(normalized_process)])
            self._processes[key] = normalized_process
            self._digests[key] = digest
        return digest

    def fingerprint_of(self, process: ProcessLike) -> str:
        """The exact (α-sensitive) fingerprint of a process, memoized by identity."""
        normalized_process = self.normalized(process)
        key = id(normalized_process)
        fingerprint = self._fingerprints.get(key)
        if fingerprint is None:
            fingerprint = process_fingerprint(normalized_process)
            self._processes[key] = normalized_process
            self._fingerprints[key] = fingerprint
        return fingerprint

    def canonical_form_of(self, process: ProcessLike) -> str:
        """The canonical printed form of a process, memoized by identity."""
        normalized_process = self.normalized(process)
        key = id(normalized_process)
        form = self._canonical_forms.get(key)
        if form is None:
            form = format_canonical(normalized_process)
            self._processes[key] = normalized_process
            self._canonical_forms[key] = form
        return form

    def design_digest(
        self, components: Sequence[ProcessLike], extra: Optional[str] = None
    ) -> str:
        """The content digest of a set of components.

        Identical to :func:`repro.lang.printer.canonical_digest` over the
        same components (the identity registries and stores key on) — both
        hash through :func:`repro.lang.printer.digest_of_forms` — but built
        from the per-component canonical forms this context has already
        memoized.
        """
        return digest_of_forms(
            (self.canonical_form_of(component) for component in components), extra
        )

    # -- digest liveness across the context's designs -----------------------------
    def retain_digest(
        self, digest: str, components: Optional[Sequence[NormalizedProcess]] = None
    ) -> None:
        """Record that a live design addresses artifacts of ``digest``.

        ``components`` is that design's component list when ``digest`` is
        one of its processes (a component or the composition): the
        process's :meth:`analysis` then declares the design's
        :meth:`variable_order`.  The first design to claim a digest keeps it.
        """
        self._digest_refs[digest] = self._digest_refs.get(digest, 0) + 1
        if components is not None:
            self._design_components.setdefault(digest, components)

    def release_digest(self, digest: str) -> int:
        """Drop one reference; returns how many live references remain.

        Invalidation is gated on this: a context shared by several designs
        (the documented ``context=`` pattern) must not drop artifacts one
        design stopped using while another still addresses them.
        """
        remaining = self._digest_refs.get(digest, 0) - 1
        if remaining <= 0:
            self._digest_refs.pop(digest, None)
            self._design_components.pop(digest, None)
            return 0
        self._digest_refs[digest] = remaining
        return remaining

    # -- memoized pipeline stages -----------------------------------------------
    def variable_order(self, components: Sequence[ProcessLike]) -> VariableOrder:
        """The structural BDD variable order of a set of components, memoized.

        One :class:`~repro.clocks.order.VariableOrder` per design digest (a
        single process is the one-component design, under its own digest).
        :meth:`analysis` declares its clock variables into this context's
        manager before the first BDD is built.  The exact fingerprints are
        part of the key, because the order names concrete signals.
        """
        normalized_components = [self.normalized(component) for component in components]
        return self.graph.resolve(
            "order",
            self.design_digest(normalized_components),
            "|".join(self.fingerprint_of(component) for component in normalized_components),
            compute=lambda: structural_order(normalized_components),
            keep=tuple(normalized_components),
        )

    def normalized(self, process: ProcessLike) -> NormalizedProcess:
        """The normalized form of any process-like value, memoized.

        Normalization is the stage that *produces* content digests, so its
        node is keyed by definition identity (kept alive through the
        graph), not by digest — it resolves through the graph like every
        other stage, so its counters and dependency edges are recorded
        uniformly.
        """
        if isinstance(process, NormalizedProcess):
            return process
        if isinstance(process, str):
            return self.normalized(self._definition_from_source(process))
        if isinstance(process, ProcessBuilder):
            process = process.build()
        definition = process
        return self.graph.resolve(
            "normalize",
            f"definition:{id(definition)}",
            compute=lambda: normalize(definition, self.registry or None),
            keep=(definition,),
        )

    def analysis(self, process: ProcessLike) -> ProcessAnalysis:
        """The :class:`ProcessAnalysis` of a process, memoized on this context.

        Every analysis on the shared manager is created here, so this is
        where the variable order is declared: a variable's first declaration
        fixes its level, and the process's design (see :meth:`retain_digest`;
        a process no design claims is its own one-component design)
        declares its structural :meth:`variable_order` first.  The order is
        resolved untracked: the analysis is the same under any order, so
        dropping the order of an edited design keeps it.
        """
        normalized_process = self.normalized(process)
        digest = self.digest_of(normalized_process)

        def compute() -> ProcessAnalysis:
            components = self._design_components.get(digest, (normalized_process,))
            with self.graph.untracked():
                order = self.variable_order(components)
            for name in clock_variables(order):
                self.manager.declare(name)
            return ProcessAnalysis(normalized_process, manager=self.manager)

        return self.graph.resolve(
            "analysis",
            digest,
            self.fingerprint_of(normalized_process),
            compute=compute,
            keep=(normalized_process,),
        )

    def hierarchy(self, process: ProcessLike):
        """The clock hierarchy of a process — an artifact node of its own, so
        hierarchy-only consumers (the interpreter-backed lazy engines) are
        tracked and reused independently of the full analysis."""
        normalized_process = self.normalized(process)
        return self.graph.resolve(
            "hierarchy",
            self.digest_of(normalized_process),
            self.fingerprint_of(normalized_process),
            compute=lambda: self.analysis(normalized_process).hierarchy,
            keep=(normalized_process,),
        )

    def compiled(self, process: ProcessLike) -> Optional[CompiledAbstraction]:
        """The compiled step relation of a process, memoized on this context.

        Returns ``None`` when the process falls outside the boolean-definable
        fragment of :mod:`repro.mc.compiled` (the engines then fall back to
        the interpreter-backed enumeration); the negative answer is itself
        persisted so warm starts skip the recompile attempt.  The
        abstraction owns a private BDD manager, declared in the process's
        structural variable order (no clock hierarchy, no analysis); a large
        relation may then be resifted, which a shared manager cannot allow.
        """
        return self._compiled_node(self.normalized(process))

    def _compiled_node(
        self, normalized_process: NormalizedProcess
    ) -> Optional[CompiledAbstraction]:
        def compute() -> Optional[CompiledAbstraction]:
            return CompiledAbstraction.try_compile(normalized_process)

        return self.graph.resolve(
            "compiled",
            self.digest_of(normalized_process),
            self.fingerprint_of(normalized_process),
            kind="compiled",
            compute=compute,
            encode=lambda value: compiled_artifact_payload(normalized_process, value),
            decode=lambda payload: compiled_from_artifact(normalized_process, payload),
            keep=(normalized_process,),
        )

    def _compile_product_component(self, component):
        """Memoized compile for (possibly retyped) product components.

        :class:`~repro.mc.onthefly.ProductLTS` re-creates its retyped
        component objects per construction; the equations tuple is shared
        with the original process, making (equations identity, effective
        types) a stable key for one *representative* object whose digest
        then addresses the artifact node (retyped components have their own
        content digest — the canonical form covers types)."""
        key = (
            id(component.equations),
            tuple(component.inputs),
            tuple(sorted(component.types.items())),
        )
        representative = self._retyped.get(key)
        if representative is None:
            # keep the component alive so the id() in the key stays valid
            self._retyped[key] = representative = component
        return self._compiled_node(representative)

    def lts(
        self, process: ProcessLike, max_states: int = 512, engine: str = "compiled"
    ) -> ReactionLTS:
        """The materialized reaction LTS of a process, memoized per state bound.

        ``engine="compiled"`` (the default) drives the exploration from the
        compiled step relation when the process fits its fragment — same
        states, same transitions, no interpreter on the per-state path;
        ``engine="interpreter"`` forces the interpreter-backed abstraction.
        """
        normalized_process = self.normalized(process)
        abstraction = self.compiled(normalized_process) if engine == "compiled" else None
        effective = "compiled" if abstraction is not None else "interpreter"

        def compute() -> ReactionLTS:
            # a compiled relation already encodes the clock structure: the
            # hierarchy (and the whole ProcessAnalysis) is then not needed,
            # which keeps an artifact-store warm start free of analysis work.
            # Resolving either node inside compute records the graph edge.
            hierarchy = None
            if abstraction is None:
                hierarchy = self.hierarchy(normalized_process)
            else:
                self.compiled(normalized_process)
            lazy = LazyReactionLTS(normalized_process, hierarchy, abstraction=abstraction)
            return OnTheFlyChecker(lazy, max_states=max_states).materialize()

        fingerprint = (
            f"{self.fingerprint_of(normalized_process)}"
            f"|max_states={max_states}|engine={effective}"
        )
        return self.graph.resolve(
            "lts",
            self.digest_of(normalized_process),
            fingerprint,
            compute=compute,
            keep=(normalized_process,),
        )

    def onthefly(
        self,
        components: Sequence[ProcessLike],
        max_states: int = 512,
        name: Optional[str] = None,
        types: Optional[Mapping[str, str]] = None,
        engine: str = "compiled",
    ) -> OnTheFlyChecker:
        """An on-the-fly engine over the components, memoized per state bound.

        With one component this is a lazy view of its reaction LTS; with
        several it is the lazy synchronous :class:`ProductLTS` that joins
        per-component reactions on demand and never materializes the
        composed state space.  The engine is a monotone cache: queries
        issued through the same context keep extending one exploration.

        ``engine`` selects the per-component reaction source: ``"compiled"``
        (the default) enumerates admissible reactions from each component's
        compiled step relation, transparently falling back per component to
        the interpreter-backed abstraction outside the compiled fragment;
        ``"interpreter"`` opts out of compilation entirely.  Component
        hierarchies are resolved lazily — a product whose components all
        reload compiled relations from the store builds no
        :class:`ProcessAnalysis` at all.
        """
        normalized_components = [self.normalized(component) for component in components]
        types_key = tuple(sorted(types.items())) if types is not None else None

        def compute() -> OnTheFlyChecker:
            if len(normalized_components) == 1:
                abstraction = (
                    self.compiled(normalized_components[0])
                    if engine == "compiled"
                    else None
                )
                # a compiled (possibly store-loaded) relation makes the
                # hierarchy — and the whole ProcessAnalysis — unnecessary
                hierarchy = (
                    None
                    if abstraction is not None
                    else self.hierarchy(normalized_components[0])
                )
                lazy = LazyReactionLTS(
                    normalized_components[0], hierarchy, abstraction=abstraction
                )
            else:
                lazy = ProductLTS(
                    normalized_components,
                    name=name,
                    types=types,
                    engine=engine,
                    compile_component=self._compile_product_component,
                    hierarchy_for=self.hierarchy,
                )
            return OnTheFlyChecker(lazy, max_states=max_states)

        fingerprint = "|".join(
            [self.fingerprint_of(component) for component in normalized_components]
            + [f"max_states={max_states}", f"name={name}", f"types={types_key}", engine]
        )
        return self.graph.resolve(
            "engine",
            self.design_digest(normalized_components),
            fingerprint,
            compute=compute,
            keep=tuple(normalized_components),
        )

    def _definition_from_source(self, source: str) -> ProcessDefinition:
        definitions = parse_program(source)
        self.register(definitions)
        roots = _root_definitions(definitions)
        if len(roots) != 1:
            raise ValueError(
                f"source defines {len(roots)} top-level processes "
                f"({', '.join(sorted(d.name for d in roots))}); add them one by one "
                "or use Design.from_source()"
            )
        return roots[0]

    def stats(self) -> Dict[str, object]:
        """Aggregate and per-stage counters (historical keys preserved)."""
        graph_stats = self.graph.stats()
        return {
            "hits": self.graph.hits,
            "misses": self.graph.computed,
            "store_hits": self.graph.store_hits,
            "analyses": len(self.graph.nodes("analysis")),
            "ltss": len(self.graph.nodes("lts")),
            "engines": len(self.graph.nodes("engine")),
            "compiled": sum(
                1 for _key, value in self.graph.nodes("compiled") if value is not None
            ),
            "bdd_variables": len(self.manager.variables()),
            "stages": graph_stats["stages"],
            "nodes": graph_stats["nodes"],
        }

    def store_root(self) -> Optional[str]:
        """The directory of the attached artifact store, when it has one —
        how worker processes re-open the same store."""
        root = getattr(self.graph.store, "root", None)
        return str(root) if root is not None else None


def _instantiated_names(statement: Statement) -> Iterable[str]:
    if isinstance(statement, Instantiation):
        yield statement.process
    elif isinstance(statement, Composition):
        for child in statement.statements:
            yield from _instantiated_names(child)
    elif isinstance(statement, Restriction):
        yield from _instantiated_names(statement.body)


def _root_definitions(definitions: Mapping[str, ProcessDefinition]) -> List[ProcessDefinition]:
    """The processes of a parsed program that no other parsed process instantiates."""
    instantiated: set = set()
    for definition in definitions.values():
        instantiated.update(_instantiated_names(definition.body))
    roots = [d for name, d in definitions.items() if name not in instantiated]
    return roots or list(definitions.values())


def analyze(
    process: Union[ProcessLike, ProcessAnalysis],
    registry: Optional[Mapping[str, ProcessDefinition]] = None,
    *,
    context: Optional[AnalysisContext] = None,
) -> ProcessAnalysis:
    """Analyse a process — the single canonical code path.

    Normalizes the input if needed (resolving instantiations against
    ``registry``) and builds the :class:`ProcessAnalysis` pipeline.  With a
    ``context`` the result is memoized and shares the context's BDD manager;
    without one, a fresh standalone analysis is returned.  ``repro.analyze``
    is this function, and every analysis issued by a :class:`Design`
    resolves here too.
    """
    if isinstance(process, ProcessAnalysis):
        return process
    if context is None:
        context = AnalysisContext(registry)
        return ProcessAnalysis(context.normalized(process))
    if registry:
        context.register(registry)
    return context.analysis(process)


class Design:
    """A session over one design: components, shared analyses, verdicts, code.

    Components can be added as :class:`ProcessDefinition`,
    :class:`NormalizedProcess`, :class:`ProcessBuilder` or Signal source text;
    all analysis work is shared through :attr:`context` and survives across
    ``verify()`` / ``compile()`` calls, so checking several properties of an
    N-component composition normalizes and hierarchizes each component once.
    """

    def __init__(
        self,
        name: str = "design",
        components: Iterable[ProcessLike] = (),
        context: Optional[AnalysisContext] = None,
        registry: Optional[Mapping[str, ProcessDefinition]] = None,
        composition: Optional[ProcessLike] = None,
    ):
        self.name = name
        self.context = context or AnalysisContext()
        if registry:
            self.context.register(registry)
        self._components: List[NormalizedProcess] = []
        self._composition: Optional[NormalizedProcess] = None
        self._custom_composition = False
        self._criterion: Optional[CompositionVerdict] = None
        self._digest: Optional[str] = None
        #: digests this design holds live references to on the context (its
        #: current design digest and composition digest); superseded values
        #: are released — and invalidated once no design addresses them
        self._retained_digest: Optional[str] = None
        self._retained_composition_digest: Optional[str] = None
        self._component_designs: Dict[int, "Design"] = {}
        for component in components:
            self.add_component(component)
        if composition is not None:
            # A pre-built composition (e.g. from a generator) used as-is; it is
            # discarded if the component list changes afterwards.  It is part
            # of the design's identity: a custom composition can differ
            # semantically from the plain compose of the components, so the
            # design digest mixes it in (see :meth:`digest`).
            self._composition = self.context.normalized(composition)
            self._custom_composition = True
            self._track_composition(self._composition)

    # -- constructors ------------------------------------------------------------
    @classmethod
    def from_source(
        cls,
        source: str,
        name: Optional[str] = None,
        components: Optional[Sequence[str]] = None,
        context: Optional[AnalysisContext] = None,
    ) -> "Design":
        """Build a design from Signal source text.

        Every process defined in ``source`` joins the design's registry (so
        instantiations resolve); the design's components are the processes
        named in ``components``, or, by default, the *root* processes — those
        not instantiated by any other process of the program.
        """
        definitions = parse_program(source)
        context = context or AnalysisContext()
        context.register(definitions)
        if components is not None:
            missing = [n for n in components if n not in definitions]
            if missing:
                raise ValueError(f"source does not define {', '.join(missing)}")
            selected = [definitions[n] for n in components]
        else:
            selected = _root_definitions(definitions)
        design_name = name or (selected[0].name if len(selected) == 1 else "design")
        return cls(name=design_name, components=selected, context=context)

    @classmethod
    def from_builder(
        cls, builder: ProcessBuilder, context: Optional[AnalysisContext] = None
    ) -> "Design":
        """Build a single-component design from a :class:`ProcessBuilder`."""
        definition = builder.build()
        return cls(name=definition.name, components=[definition], context=context)

    @classmethod
    def from_process(
        cls,
        process: ProcessLike,
        context: Optional[AnalysisContext] = None,
        registry: Optional[Mapping[str, ProcessDefinition]] = None,
    ) -> "Design":
        """Build a single-component design from any process-like value."""
        design = cls(context=context, registry=registry, components=[process])
        design.name = design._components[0].name
        return design

    @classmethod
    def from_generated(
        cls, generated, context: Optional[AnalysisContext] = None
    ) -> "Design":
        """Build a design from a :class:`repro.gen.topologies.GeneratedDesign`.

        The generated components become the design's components; the design
        digest is then the content digest of exactly what the generator
        produced (the generator's composition is the plain compose of its
        components, so no custom ``composition=`` is needed — and the digest
        stays equal to a design rebuilt from the components' printed
        sources, which is what lets corpus entries re-address the same
        verdict artifacts).  This is the bridge between the scenario
        generator (:mod:`repro.gen`) and the verification facade —
        differential runs, corpus entries and sweeps all go through here.
        """
        return cls(
            name=generated.name,
            components=list(generated.components),
            context=context,
        )

    # -- composition -------------------------------------------------------------
    def _coerce_component(
        self, process: ProcessLike, name: Optional[str] = None
    ) -> NormalizedProcess:
        if isinstance(process, ProcessDefinition):
            self.context.register(process)
        component = self.context.normalized(process)
        if name:
            component = NormalizedProcess(
                name=name,
                inputs=component.inputs,
                outputs=component.outputs,
                locals=component.locals,
                equations=component.equations,
                types=dict(component.types),
            )
        return component

    def _release_and_maybe_invalidate(self, digest: str) -> None:
        if self.context.release_digest(digest) == 0:
            self.context.graph.invalidate(digest)

    def _track_composition(self, composed: NormalizedProcess) -> None:
        """Retain the (re)built composition's digest; supersede the old one.

        Releasing the previous composition digest — and invalidating it once
        no design addresses it — is what keeps repeated edits from
        accumulating stale composed analyses in the memory tier.
        """
        digest = self.context.digest_of(composed)
        if digest == self._retained_composition_digest:
            return
        previous = self._retained_composition_digest
        self.context.retain_digest(digest, self._components)
        self._retained_composition_digest = digest
        if previous is not None:
            self._release_and_maybe_invalidate(previous)

    def _release_tracked(self) -> None:
        """Give up every digest reference this design holds (cached
        sub-designs release through here when the parent discards them)."""
        for component in self._components:
            self._release_and_maybe_invalidate(self.context.digest_of(component))
        for digest in (self._retained_digest, self._retained_composition_digest):
            if digest is not None:
                self._release_and_maybe_invalidate(digest)
        self._retained_digest = None
        self._retained_composition_digest = None

    def _invalidate_composed(self, changed: Optional[NormalizedProcess] = None) -> None:
        """Reset design-level caches after a component change.

        Artifact nodes are keyed by content digest, so an edit invalidates
        by construction — untouched components keep addressing their
        existing artifacts, and composition-level nodes simply move to the
        new design digest.  Digest liveness is reference-counted on the
        context, so sessions sharing one context never lose each other's
        warm artifacts: when ``changed`` names a replaced/removed component
        whose digest no live design addresses anymore, its in-memory
        artifacts and everything that depended on them (old design
        verdicts, product engines) are dropped, dependency-tracked, from
        the graph.  The old design digest and old composition digest are
        superseded lazily — at the next :meth:`digest` computation and the
        next composition rebuild — which is where their stale obligations,
        engines and composed analyses get dropped.
        """
        for sub_design in self._component_designs.values():
            sub_design._release_tracked()
        self._component_designs.clear()
        self._composition = None
        self._custom_composition = False
        self._criterion = None
        self._digest = None
        if changed is not None:
            self._release_and_maybe_invalidate(self.context.digest_of(changed))

    def add_component(self, process: ProcessLike, name: Optional[str] = None) -> "Design":
        """Add a component (chainable); invalidates composed artefacts only."""
        component = self._coerce_component(process, name)
        self._components.append(component)
        self.context.retain_digest(self.context.digest_of(component), self._components)
        self._invalidate_composed()
        return self

    def replace_component(
        self, index: int, process: ProcessLike, name: Optional[str] = None
    ) -> "Design":
        """Replace component ``index`` (chainable) — the incremental edit.

        Only the digest that actually changed is invalidated: artifacts of
        every untouched component stay addressed (and warm), while the old
        component's in-memory artifacts and their dependents are dropped —
        unless another design on the same context still uses the old
        digest.  Re-verifying after a one-component edit therefore
        recomputes the changed component's stages and the composition-level
        obligations, nothing else — pinned by the stage counters in
        ``tests/test_incremental.py``.
        """
        old = self._components[index]
        component = self._coerce_component(process, name)
        self._components[index] = component
        self.context.retain_digest(self.context.digest_of(component), self._components)
        self._invalidate_composed(changed=old)
        return self

    def remove_component(self, index: int) -> "Design":
        """Remove component ``index`` (chainable); same invalidation contract
        as :meth:`replace_component`."""
        old = self._components.pop(index)
        self._invalidate_composed(changed=old)
        return self

    @property
    def components(self) -> Tuple[NormalizedProcess, ...]:
        return tuple(self._components)

    def digest(self) -> str:
        """The content digest of this design's components.

        The SHA-256 of the canonical printed source of every component (see
        :func:`repro.lang.printer.canonical_digest`): stable across sessions
        and processes, independent of component order and of how the
        components were constructed.  This is the identity the verification
        service content-addresses designs, artifacts and verdicts by, and
        the key every composition-level artifact node of this design lives
        under.  A design constructed with an explicit ``composition=`` (one
        that may differ semantically from the plain compose of the
        components) mixes that composition's content into the digest, so
        its verdicts never collide with the default-composition design's.
        """
        if not self._components:
            raise ValueError(f"design {self.name!r} has no components")
        if self._digest is None:
            extra = None
            if self._custom_composition and self._composition is not None:
                extra = "composition:" + self.context.digest_of(self._composition)
            self._digest = self.context.design_digest(self._components, extra=extra)
            if self._digest != self._retained_digest:
                previous = self._retained_digest
                self.context.retain_digest(self._digest)
                self._retained_digest = self._digest
                if previous is not None:
                    # the pre-edit design digest: drop its verdicts,
                    # obligations and engines once no design addresses it
                    self._release_and_maybe_invalidate(previous)
        return self._digest

    @property
    def composition(self) -> NormalizedProcess:
        """The synchronous composition of the components (cached)."""
        if not self._components:
            raise ValueError(f"design {self.name!r} has no components")
        if self._composition is None:
            composed = self._components[0]
            for component in self._components[1:]:
                composed = composed.compose(component)
            if composed.name != self.name:
                composed = NormalizedProcess(
                    name=self.name,
                    inputs=composed.inputs,
                    outputs=composed.outputs,
                    locals=composed.locals,
                    equations=composed.equations,
                    types=dict(composed.types),
                )
            self._composition = composed
            self._track_composition(composed)
        return self._composition

    @property
    def analysis(self) -> ProcessAnalysis:
        """The shared :class:`ProcessAnalysis` of the composition."""
        return self.context.analysis(self.composition)

    def component_analyses(self) -> List[ProcessAnalysis]:
        return [self.context.analysis(component) for component in self._components]

    def criterion(self) -> CompositionVerdict:
        """The weakly hierarchic criterion (Definition 12) over the components, cached."""
        if self._criterion is None:
            self._criterion = check_weakly_hierarchic(
                self._components, self.composition, context=self.context
            )
        return self._criterion

    # -- the pipeline: verify and compile ------------------------------------------
    def verify(self, prop: str, method: str = "auto", **options):
        """Check a property of the design; returns a :class:`~repro.api.results.Verdict`.

        ``method`` selects the backend: ``"static"`` (the clock calculus /
        Theorem 1), ``"explicit"`` (reaction LTS exploration), ``"symbolic"``
        (the invariant formulation of Section 4.1 with BDD reachability) or
        ``"auto"`` — prefer the static criterion, fall back to model checking
        when the criterion does not apply.

        Verdicts are artifact nodes keyed by ``(design digest, prop, method,
        options)``: repeated queries return the same object from the memory
        tier, and with an artifact store attached a verification query of a
        content-addressed design is deterministic, so completed verdicts
        reload across sessions (reloaded verdicts carry no ``report`` — the
        same sanitization as crossing a process boundary).
        """
        from repro.api.backends import canonical_property, verify as dispatch
        from repro.api.results import Verdict

        prop = canonical_property(prop)
        options_key = options_fingerprint(options)

        def compute() -> Verdict:
            if not obs_trace.TRACING:
                return dispatch(self, prop, method, **options)
            # tracing on: collect the per-stage self-time breakdown across
            # this query's dispatch and pin the kernel counters' delta to
            # the enclosing artifact.verdict span
            graph = self.context.graph
            seconds_before = dict(graph.stage_seconds)
            bdd_before = obs_profile.bdd_tags(self.context.manager)
            started = time.perf_counter()
            verdict = dispatch(self, prop, method, **options)
            elapsed = time.perf_counter() - started
            stages = {
                stage: round(total - seconds_before.get(stage, 0.0), 6)
                for stage, total in graph.stage_seconds.items()
                if total - seconds_before.get(stage, 0.0) > 0.0
            }
            stages["verify"] = round(max(elapsed - sum(stages.values()), 0.0), 6)
            verdict.cost = dataclasses.replace(verdict.cost, stages=stages)
            obs_trace.tag_current(
                outcome=bool(verdict.holds),
                **obs_profile.bdd_tag_delta(bdd_before, self.context.manager),
            )
            return verdict

        return self.context.graph.resolve(
            "verdict",
            self.digest(),
            f"{prop}|{method}|{options_key}",
            kind=verdict_kind(prop, method, options_key),
            compute=compute,
            encode=lambda verdict: verdict.to_dict(),
            decode=Verdict.from_dict,
        )

    @staticmethod
    def _query_spec(spec, default_method: str, common: Mapping[str, object]):
        """Normalize one ``verify_many`` spec to ``(prop, method, options)``.

        Accepted forms: ``"prop"``, ``("prop", "method")``,
        ``("prop", "method", {options})`` and
        ``{"prop": ..., "method": ..., **options}``.
        """
        if isinstance(spec, str):
            return spec, default_method, dict(common)
        if isinstance(spec, Mapping):
            options = {**common, **spec}
            prop = options.pop("prop")
            method = options.pop("method", default_method)
            return prop, method, options
        spec = tuple(spec)
        if len(spec) == 2:
            prop, method = spec
            return prop, method, dict(common)
        if len(spec) == 3:
            prop, method, options = spec
            return prop, method, {**common, **options}
        raise ValueError(f"unsupported verify_many spec {spec!r}")

    def verify_many(
        self, props: Iterable[object], parallel: Optional[int] = None,
        method: str = "auto", **common_options
    ) -> List[object]:
        """Check several properties of the design; one Verdict per spec, in order.

        ``props`` is a list of property specs (see :meth:`_query_spec`);
        ``method`` and ``common_options`` apply to every spec that does not
        override them.  With ``parallel=N > 1`` the independent queries are
        sharded over ``N`` worker processes, each holding its own memoized
        :class:`AnalysisContext`; the returned verdicts are then *sanitized*
        (``report`` dropped, unpicklable witnesses stringified — see
        :mod:`repro.api.parallel`).  Sequentially (the default), queries
        share this design's context and cache, and verdicts are complete.
        """
        specs = [self._query_spec(spec, method, common_options) for spec in props]
        if not parallel or parallel <= 1 or len(specs) <= 1:
            return [self.verify(prop, m, **options) for prop, m, options in specs]
        from repro.api.parallel import run_queries

        tasks = [(prop, m, options) for prop, m, options in specs]
        return run_queries(
            self._components, self.name, tasks, parallel,
            store_root=self.context.store_root(),
        )

    def component_design(self, index: int) -> "Design":
        """A cached single-component design over component ``index``, sharing
        this design's :class:`AnalysisContext`."""
        design = self._component_designs.get(index)
        if design is None:
            design = Design.from_process(self._components[index], context=self.context)
            self._component_designs[index] = design
        return design

    def map_components(self, prop: str, method: str = "auto", **options) -> List[object]:
        """Check ``prop`` on every component separately; one Verdict per component.

        The queries run through this design's shared context, so the
        component analyses they build are the ones the compositional
        criterion reuses.
        """
        return [
            self.component_design(index).verify(prop, method, **options)
            for index in range(len(self._components))
        ]

    def compile(self, strategy: str = "sequential", runtime: str = "specialized", **options):
        """Deploy the design; returns a :class:`~repro.api.deploy.Deployment`.

        ``strategy`` is ``"sequential"`` (Section 3.6 / 5.1), ``"controlled"``
        (the synthesized controller of Section 5.2), ``"concurrent"`` (threads
        and barriers) or ``"ltta"`` (quasi-synchronous execution with sustained
        shared signals, Section 4.2).

        ``runtime`` selects the execution tier behind the step functions:
        ``"specialized"`` (the default: the exec-compiled code of Section 3.6,
        with IO and delay registers bound into closures — no per-step
        dictionary lookups), ``"interpreter"`` (one dispatch per scheduled
        operation; the reference and measured baseline) or ``"batched"`` (the
        numpy fleet runtime of :mod:`repro.codegen.batch`, sequential
        strategy only — its deployment adds ``run_many(instances)``).  Every
        tier runs the same scheduled program, so ``listing()`` is the same.
        """
        from repro.api.deploy import build_deployment

        return build_deployment(self, strategy, runtime=runtime, **options)

    # -- reporting ----------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Per-stage artifact-graph counters of this design's context.

        ``stages`` maps each pipeline stage (``normalize``, ``analysis``,
        ``hierarchy``, ``compiled``, ``lts``, ``engine``, ``diagnosis``,
        ``obligations``, ``verdict``) to its ``hits`` / ``store_hits`` /
        ``computed`` / ``stored`` / ``invalid`` / ``invalidated`` counters —
        the instrumentation behind the incremental-reverification claims.
        JSON-safe throughout.
        """
        graph_stats = self.context.graph.stats()
        store = self.context.graph.store
        store_stats = getattr(store, "stats", None)
        return {
            "design": self.name,
            "components": len(self._components),
            "digest": self.digest() if self._components else None,
            "stages": graph_stats["stages"],
            "nodes": graph_stats["nodes"],
            "edges": graph_stats["edges"],
            "hits": graph_stats["hits"],
            "store_hits": graph_stats["store_hits"],
            "computed": graph_stats["computed"],
            "store": store_stats() if callable(store_stats) else None,
        }

    def summary(self) -> Dict[str, object]:
        """Composition summary plus per-component endochrony, uniform with reports."""
        summary = self.analysis.summary()
        summary["design"] = self.name
        summary["components"] = {
            analysis.process.name: {
                "compilable": analysis.is_compilable(),
                "roots": analysis.root_count(),
            }
            for analysis in self.component_analyses()
        }
        return summary

    def describe(self) -> str:
        lines = [f"design {self.name}: {len(self._components)} component(s)"]
        for analysis in self.component_analyses():
            lines.append(
                f"  {analysis.process.name}: compilable={analysis.is_compilable()} "
                f"roots={analysis.root_count()}"
            )
        analysis = self.analysis
        lines.append(
            f"  composition: well-clocked={analysis.is_well_clocked()} "
            f"acyclic={analysis.is_acyclic()} roots={analysis.root_count()}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Design({self.name!r}, components={[c.name for c in self._components]})"
