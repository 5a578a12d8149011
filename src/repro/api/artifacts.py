"""The digest-keyed artifact graph — one cache for every pipeline stage.

Every product of the verification pipeline — normalization, the
:class:`~repro.properties.compilable.ProcessAnalysis`, the clock hierarchy,
the compiled BDD step relation, explored LTSs and on-the-fly engines,
per-component property diagnoses, composition-level obligations, completed
verdicts — is a **node** of one graph, keyed by

    (content digest, stage, fingerprint)

where the digest is the α-invariant content address of the process(es) the
artifact was derived from (:func:`repro.lang.printer.canonical_digest`), the
stage names the pipeline step, and the fingerprint carries whatever else the
artifact depends on (the exact α-sensitive spelling for name-carrying
artifacts, exploration bounds, engine choice, query options).

Nodes are resolved through tiers:

1. the **memory tier** — a plain dict, the per-session memo that used to be
   a handful of ad-hoc ``id()``-keyed dicts on ``AnalysisContext``;
2. the **store tier** — any object with ``get(digest, kind)`` /
   ``put(digest, kind, payload)`` over JSON payloads (in practice the
   content-addressed :class:`~repro.service.store.ArtifactStore`).  A stage
   opts in by passing a ``kind`` plus ``encode``/``decode`` codecs; a decode
   that raises ``KeyError``/``ValueError``/``TypeError`` is a *miss*
   (format bump, α-variant payload), never a wrong answer.

Because the keys are content digests, edits invalidate by *construction*:
changing a component changes its digest, so its old artifacts simply stop
being addressed while every untouched component keeps hitting its existing
nodes — the paper's per-component obligations surviving composition,
expressed as a cache policy.  Explicit :meth:`ArtifactGraph.invalidate` is
memory hygiene on top: dependency edges are recorded automatically whenever
one node is resolved while another is being computed, so dropping a digest
also drops everything downstream of it (composition obligations, design
verdicts, product engines) and the per-stage ``invalidated`` counters say
exactly what an edit cost.

Per-stage counters (``hits`` / ``store_hits`` / ``computed`` / ``stored`` /
``invalid`` / ``invalidated``) are the instrumentation the incremental
tests and ``benchmarks/bench_incremental.py`` pin their claims on, surfaced
through ``Design.stats()`` and the service's ``stats`` operation.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.obs import trace as obs_trace

#: (content digest, stage name, fingerprint) — the identity of one artifact
ArtifactKey = Tuple[str, str, str]

#: counter fields every stage reports
COUNTER_FIELDS = ("hits", "store_hits", "computed", "stored", "invalid", "invalidated")

#: exceptions a decode codec may raise to signal "payload unusable: recompute"
DECODE_MISS = (KeyError, ValueError, TypeError)


def verdict_kind(prop: str, method: str, options_key: str) -> str:
    """The store object kind of one persisted verdict query.

    Shared by the session facade and the service layer, so a verdict a
    :class:`~repro.api.session.Design` persists is the very object a
    :class:`~repro.service.scheduler.VerificationService` (or another
    session) answers the repeat query from.
    """
    token = hashlib.sha256(
        f"{prop}\x00{method}\x00{options_key}".encode("utf-8")
    ).hexdigest()[:16]
    return f"verdict-{token}"


class ArtifactGraph:
    """Digest-keyed artifact nodes over a memory tier and an optional store.

    ``store`` is any object with ``get(digest, kind) -> Optional[dict]`` and
    ``put(digest, kind, payload)``; it may be attached after construction
    (the service wires its :class:`~repro.service.store.ArtifactStore` into
    already-registered sessions).
    """

    def __init__(self, store: Optional[object] = None):
        self.store = store
        self._memory: Dict[ArtifactKey, object] = {}
        #: strong references that keep id()-derived fingerprints valid
        self._keep: Dict[ArtifactKey, Tuple[object, ...]] = {}
        self._by_digest: Dict[str, Set[ArtifactKey]] = {}
        #: key -> keys that were resolved while computing it
        self._dependencies: Dict[ArtifactKey, Set[ArtifactKey]] = {}
        #: key -> keys whose computation resolved it (reverse edges)
        self._dependents: Dict[ArtifactKey, Set[ArtifactKey]] = {}
        self._stack: List[ArtifactKey] = []
        self.counters: Dict[str, Dict[str, int]] = {}
        #: cumulative compute *self*-time per stage (descendant stages
        #: excluded) — the per-stage breakdown ``Verdict.cost`` surfaces
        self.stage_seconds: Dict[str, float] = {}
        #: child-elapsed accumulator parallel to ``_stack``
        self._child_seconds: List[float] = []
        #: store objects a caller just read and missed (see note_store_miss)
        self._store_misses: Set[Tuple[str, str]] = set()

    # -- counters -----------------------------------------------------------------
    def _count(self, stage: str, event: str, amount: int = 1) -> None:
        counters = self.counters.get(stage)
        if counters is None:
            counters = self.counters[stage] = {field: 0 for field in COUNTER_FIELDS}
        counters[event] += amount

    @property
    def hits(self) -> int:
        """Memory-tier hits across all stages (the historical ``hits`` counter)."""
        return sum(counters["hits"] for counters in self.counters.values())

    @property
    def store_hits(self) -> int:
        return sum(counters["store_hits"] for counters in self.counters.values())

    @property
    def computed(self) -> int:
        """Artifacts actually computed (the historical ``misses`` counter)."""
        return sum(counters["computed"] for counters in self.counters.values())

    # -- the resolution protocol ----------------------------------------------------
    def _edge(self, key: ArtifactKey) -> None:
        """Record that the node currently being computed depends on ``key``."""
        if not self._stack:
            return
        parent = self._stack[-1]
        if parent == key:
            return
        self._dependencies.setdefault(parent, set()).add(key)
        self._dependents.setdefault(key, set()).add(parent)

    @contextmanager
    def untracked(self) -> Iterator[None]:
        """Resolve nodes the one being computed does not depend on.

        No dependency edge is recorded inside this block, so invalidating
        what it resolves leaves the node being computed in place — the
        variable order an analysis declares is such a node: the analysis is
        the same under any order.
        """
        stack, self._stack = self._stack, []
        try:
            yield
        finally:
            self._stack = stack

    def note_store_miss(self, digest: str, kind: str) -> None:
        """Record that the store object ``(digest, kind)`` was just read and
        missed, so the next resolution of it computes without reading it
        again.  The note is spent by that one resolution; if another writer
        stored the object in between, it is recomputed — never answered
        wrong, since the object is a function of its key."""
        self._store_misses.add((digest, kind))

    def _remember(
        self, key: ArtifactKey, value: object, keep: Optional[Tuple[object, ...]]
    ) -> None:
        self._memory[key] = value
        self._by_digest.setdefault(key[0], set()).add(key)
        if keep:
            self._keep[key] = tuple(keep)

    def resolve(
        self,
        stage: str,
        digest: str,
        fingerprint: str = "",
        *,
        compute: Callable[[], object],
        kind: Optional[str] = None,
        encode: Optional[Callable[[object], Optional[dict]]] = None,
        decode: Optional[Callable[[dict], object]] = None,
        keep: Optional[Tuple[object, ...]] = None,
    ) -> object:
        """The artifact at ``(digest, stage, fingerprint)``, computing at most once.

        Resolution order: memory tier → store tier (only when ``kind`` names
        a persistent object and a store is attached) → ``compute()``.  A
        computed value is remembered in memory and — when ``encode`` yields
        a payload — persisted to the store under ``(digest, kind)``.
        ``None`` is a legitimate artifact value (e.g. "outside the compiled
        fragment"); only a decode raising one of :data:`DECODE_MISS` forces
        a recompute.  Dependency edges are recorded automatically: any node
        resolved while ``compute()`` runs becomes a dependency of this one.
        """
        key: ArtifactKey = (digest, stage, fingerprint)
        self._edge(key)
        if key in self._memory:
            self._count(stage, "hits")
            if obs_trace.TRACING:
                obs_trace.add_event(
                    "artifact.hit", stage=stage, digest=digest[:12], tier="memory"
                )
            return self._memory[key]
        if (digest, kind) in self._store_misses:
            self._store_misses.discard((digest, kind))
        elif kind is not None and self.store is not None:
            payload = self.store.get(digest, kind)
            if payload is not None:
                try:
                    value = decode(payload) if decode is not None else payload
                except DECODE_MISS:
                    self._count(stage, "invalid")
                else:
                    self._count(stage, "store_hits")
                    if obs_trace.TRACING:
                        obs_trace.add_event(
                            "artifact.hit",
                            stage=stage,
                            digest=digest[:12],
                            tier="store",
                        )
                    self._remember(key, value, keep)
                    return value
        self._count(stage, "computed")
        self._stack.append(key)
        self._child_seconds.append(0.0)
        compute_span = (
            obs_trace.get_tracer().start_span(
                f"artifact.{stage}", tags={"stage": stage, "digest": digest[:12]}
            )
            if obs_trace.TRACING
            else obs_trace.NULL_SPAN
        )
        token = (
            obs_trace.push(compute_span)
            if compute_span is not obs_trace.NULL_SPAN
            else None
        )
        started = time.perf_counter()
        try:
            value = compute()
        finally:
            elapsed = time.perf_counter() - started
            child_total = self._child_seconds.pop()
            self._stack.pop()
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + (
                elapsed - child_total
            )
            if self._child_seconds:
                self._child_seconds[-1] += elapsed
            if token is not None:
                obs_trace.pop(token)
                compute_span.set_tag("self_seconds", round(elapsed - child_total, 6))
                compute_span.finish()
                obs_trace.get_tracer().record(compute_span)
        self._remember(key, value, keep)
        if kind is not None and self.store is not None and encode is not None:
            payload = encode(value)
            if payload is not None:
                self.store.put(digest, kind, payload)
                self._count(stage, "stored")
        return value

    # -- invalidation ----------------------------------------------------------------
    def invalidate(self, digest: str) -> int:
        """Drop every memory node of ``digest`` and everything downstream of one.

        Content addressing makes this *hygiene*, not correctness: a node
        keyed by an old digest is still a true statement about the old
        content, it just stops being addressed once the content changed.
        Dropping the closure bounds the memory tier after edits and feeds
        the per-stage ``invalidated`` counters.  Returns the number of
        nodes dropped.  The store tier is never touched — persisted
        artifacts remain valid for their content forever.
        """
        frontier = list(self._by_digest.get(digest, ()))
        closure: Set[ArtifactKey] = set()
        while frontier:
            key = frontier.pop()
            if key in closure:
                continue
            closure.add(key)
            frontier.extend(self._dependents.get(key, ()))
        for key in closure:
            if key in self._memory:
                del self._memory[key]
                self._count(key[1], "invalidated")
            self._keep.pop(key, None)
            self._by_digest.get(key[0], set()).discard(key)
            for dependency in self._dependencies.pop(key, ()):
                self._dependents.get(dependency, set()).discard(key)
            self._dependents.pop(key, None)
        return len(closure)

    # -- introspection -----------------------------------------------------------------
    def nodes(self, stage: Optional[str] = None) -> List[Tuple[ArtifactKey, object]]:
        """``(key, value)`` pairs of the memory tier, optionally one stage's."""
        return [
            (key, value)
            for key, value in self._memory.items()
            if stage is None or key[1] == stage
        ]

    def dependencies_of(self, key: ArtifactKey) -> Tuple[ArtifactKey, ...]:
        return tuple(sorted(self._dependencies.get(key, ())))

    def stats(self) -> Dict[str, object]:
        """Per-stage counters plus memory-tier totals — JSON-safe."""
        stages = {
            stage: dict(counters) for stage, counters in sorted(self.counters.items())
        }
        return {
            "stages": stages,
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in sorted(self.stage_seconds.items())
            },
            "nodes": len(self._memory),
            "edges": sum(len(deps) for deps in self._dependencies.values()),
            "hits": self.hits,
            "store_hits": self.store_hits,
            "computed": self.computed,
        }
