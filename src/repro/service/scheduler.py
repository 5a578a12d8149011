"""The asyncio request scheduler: coalesce, cache, and bound the work.

:class:`VerificationService` multiplexes many concurrent verification
queries over one registry, one artifact store and one bounded worker pool:

* **request coalescing** — identical in-flight ``(design digest, property,
  method, options)`` queries share a single underlying computation; 64
  concurrent submissions of the same query cost exactly one compile/explore
  (``service.computations`` counts the real work, ``service.coalesced`` the
  riders);
* **LRU verdict cache** — completed verdicts are kept up to ``cache_size``
  entries with least-recently-used eviction, each stored once as the UTF-8
  JSON encoding of :meth:`repro.api.results.Verdict.to_dict`: the socket
  server splices those bytes into its response unchanged, and an in-process
  caller decodes a fresh dictionary from them, so no caller can mutate
  what the next one receives;
* **bounded backends** — :class:`InlineBackend` runs queries on a small
  thread pool sharing the registry's memoized sessions (the default: one
  worker, zero pickling); :class:`ProcessPoolBackend` shards across worker
  processes, each holding per-digest memoized
  :class:`~repro.api.session.Design` sessions and its own handle on the
  shared artifact store — the one process pool of the library, which also
  runs ``Design.verify_many(parallel=N)``.

The scheduler is loop-agnostic: all asyncio state is created lazily inside
the running loop, so one service instance can serve a socket server, a
test's ``asyncio.run`` and the CLI alike.  The synchronous wrappers
(:meth:`VerificationService.verify_blocking`) share one loop of the
service's own, on its own thread, across every calling thread.  Callers
that each run their own loop on one service coalesce only within a loop:
an in-flight task can be awaited on its own loop alone, so a caller on
another loop computes the query itself (the store or the cache usually
absorbs the work).

**Fault tolerance** (the invariant ``tests/test_chaos.py`` pins: correct
verdict or typed error, never a wrong answer, never a hang):

* computation failures surface as :class:`~repro.service.errors.QueryFailed`
  (typed, message-preserving) and are never cached;
* :class:`ProcessPoolBackend` survives worker crashes: a
  ``BrokenProcessPool`` rebuilds the pool once and re-dispatches the query a
  bounded number of times, so coalesced riders don't all die with the
  worker (:class:`~repro.service.errors.BackendCrashed` when exhausted —
  the same policy for a ``verify_many(parallel=N)`` batch);
* per-query ``deadline=`` raises
  :class:`~repro.service.errors.DeadlineExceeded` without cancelling the
  shared in-flight computation other riders still want;
* admission control (``max_inflight`` + ``max_queue``) rejects overflow
  with a fast :class:`~repro.service.errors.ServiceOverloaded` carrying a
  ``retry_after`` hint, instead of growing in-flight state without bound.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.api.artifacts import COUNTER_FIELDS
from repro.api.backends import canonical_property
from repro.api.session import Design, ProcessLike
from repro.lang.printer import options_fingerprint
from repro.obs import collect as obs_collect
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SlowQueryLog
from repro.service.errors import (
    BackendCrashed,
    DeadlineExceeded,
    QueryFailed,
    ServiceError,
    ServiceOverloaded,
)
from repro.service.faults import FaultPlan, execute_worker_fault
from repro.service.registry import DesignRegistry
from repro.service.store import ArtifactStore

#: a fully-normalized query identity: (digest, prop, method, options repr)
QueryKey = Tuple[str, str, str, str]


def _retrieve_exception(task: "asyncio.Task") -> None:
    """Mark a computation's exception as observed.

    When every waiter on a shared computation timed out (deadlines) or was
    rejected, nobody awaits the task; retrieving the exception here keeps
    asyncio from logging a spurious 'exception was never retrieved'.
    """
    if not task.cancelled():
        task.exception()


async def _drain_loop() -> None:
    """Cancel what still runs on a loop about to close (a computation whose
    every caller gave up), then join its default executor's threads."""
    current = asyncio.current_task()
    pending = [task for task in asyncio.all_tasks() if task is not current]
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    await asyncio.get_running_loop().shutdown_default_executor()


def _is_digest(value: str) -> bool:
    if len(value) != 64:
        return False
    try:
        int(value, 16)
        return True
    except ValueError:
        return False


class InlineBackend:
    """Run queries off the event loop, against the shared in-process sessions.

    The queries execute against the registry's shared
    :class:`~repro.api.session.Design` sessions, so every memo (analyses,
    compiled relations, engines, verdict caches) is reused across requests
    with zero serialization.  Those sessions — and the one
    :class:`~repro.bdd.bdd.BDDManager` behind each — are **not**
    thread-safe, so verification itself runs under a lock regardless of the
    pool size: queries leave the event loop free (which is what lets
    concurrent duplicates pile onto one in-flight computation) but execute
    one at a time.  For CPU parallelism use :class:`ProcessPoolBackend`;
    pure-Python BDD work would not parallelize on threads anyway.
    """

    name = "inline"

    def __init__(self, workers: int = 1, fault_plan: Optional[FaultPlan] = None):
        self.workers = workers
        self.fault_plan = fault_plan
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._serialize = threading.Lock()

    def _verify(
        self,
        design: Design,
        digest: str,
        prop: str,
        method: str,
        options: Dict[str, object],
        absent: Optional[str],
    ):
        with obs_trace.span("backend.exec", backend=self.name, prop=prop):
            if self.fault_plan is not None:
                # a thread cannot crash the process alone: ``crash`` degrades
                # to an injected exception here; ProcessPoolBackend gets the
                # real thing
                execute_worker_fault(self.fault_plan.exec_fault(), allow_crash=False)
            with self._serialize:
                if absent is not None:
                    design.context.graph.note_store_miss(digest, absent)
                return design.verify(prop, method, **options)

    async def run(
        self,
        design: Design,
        digest: str,
        prop: str,
        method: str,
        options: Dict[str, object],
        absent: Optional[str] = None,
    ) -> Dict[str, object]:
        """The verdict of one query, computed on ``design``'s session.

        ``absent`` names the verdict object the caller just found missing
        from the session's artifact store; the session then computes
        without reading that object a second time.
        """
        loop = asyncio.get_running_loop()
        # bind: executor threads don't inherit contextvars, so the trace
        # context rides the callable into the worker thread explicitly
        verdict = await loop.run_in_executor(
            self._executor,
            obs_trace.bind(
                partial(self._verify, design, digest, prop, method, options, absent)
            ),
        )
        return verdict.to_dict()

    async def run_blocking(self, function):
        """Run session-touching work off the loop, under the same lock as
        verification — the shared sessions are not thread-safe."""
        loop = asyncio.get_running_loop()

        def call():
            with self._serialize:
                return function()

        return await loop.run_in_executor(self._executor, call)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)

    def describe(self) -> Dict[str, object]:
        return {"backend": self.name, "workers": self.workers}

    def fault_stats(self) -> Optional[Dict[str, object]]:
        return self.fault_plan.stats() if self.fault_plan is not None else None


# -- process-pool worker state (one per worker process) --------------------------
_WORKER: Dict[str, object] = {}


def _initialize_worker(store_root: Optional[str]) -> None:
    _WORKER["designs"] = {}
    _WORKER["store"] = ArtifactStore(store_root) if store_root else None


#: the reserved verdict key worker spans ship back under (popped — and the
#: spans adopted into the parent's tracer — before the verdict is cached)
TRACE_SHIP_KEY = "_obs_spans"


def _worker_query(task) -> Dict[str, object]:
    """One query in a pool worker: per-digest memoized sessions + shared store.

    The design is rebuilt with its custom ``composition`` (``None``: the
    plain compose), and a rebuild whose digest is not the task's raises
    rather than answer for another design.

    ``fault`` is the parent's :meth:`FaultPlan.exec_fault` decision for this
    dispatch — drawn in the parent so the schedule stays deterministic, and
    executed here where a ``crash`` takes the real worker process down.

    ``trace`` is the parent's traceparent (``None`` = tracing off): workers
    are separate processes, so the context crosses in the task payload, the
    worker records spans into its own tracer, and ships them back beside
    the verdict under :data:`TRACE_SHIP_KEY` for the parent to adopt.
    """
    digest, components, composition, name, prop, method, options, fault, trace = task
    parent_context = None
    if trace is not None:
        obs_trace.configure(enabled=True)
        obs_trace.get_tracer().drain()  # a prior task's unshipped leftovers
        parent_context = obs_trace.SpanContext.from_traceparent(trace)
    with obs_trace.activate(parent_context):
        with obs_trace.span(
            "worker.exec", backend="process", prop=prop, digest=digest[:12]
        ):
            execute_worker_fault(fault, allow_crash=True)
            designs: Dict[str, Design] = _WORKER["designs"]  # type: ignore[assignment]
            design = designs.get(digest)
            if design is None:
                design = Design(name, components, composition=composition)
                if design.digest() != digest:
                    raise RuntimeError(
                        f"worker rebuilt design {name!r} as {design.digest()[:12]}…, "
                        f"not {digest[:12]}…; refusing to answer for another design"
                    )
                design.context.artifact_cache = _WORKER.get("store")
                designs[digest] = design
            verdict = design.verify(prop, method, **options).to_dict()
    if trace is not None:
        verdict[TRACE_SHIP_KEY] = obs_trace.get_tracer().drain()
    return verdict


class ProcessPoolBackend:
    """Shard queries over ``workers`` processes, all reading one artifact store.

    Each worker process builds a design at most once per digest and keeps
    its own memoized :class:`~repro.api.session.AnalysisContext`; the shared
    on-disk artifact store means even a worker seeing a design for the
    first time starts from the persisted compiled relation instead of
    recompiling.  Verdicts come back as :meth:`Verdict.to_dict` payloads
    (no report; a witness JSON cannot encode becomes its ``repr``).  The
    service serves ``--backend process`` with one long-lived instance, and
    ``Design.verify_many(parallel=N)`` runs each batch on one of its own.
    """

    name = "process"

    #: total dispatch attempts per query — the original plus one re-dispatch
    #: after a pool rebuild; a second consecutive crash is a real problem,
    #: surfaced as :class:`BackendCrashed` instead of an unbounded retry loop
    MAX_DISPATCHES = 2

    def __init__(
        self,
        workers: int = 2,
        store_root: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.workers = workers
        self.store_root = str(store_root) if store_root else None
        self.fault_plan = fault_plan
        self._pool = self._make_pool()
        self._pool_lock = threading.Lock()
        #: pools rebuilt after a worker crash (BrokenProcessPool)
        self.pool_rebuilds = 0
        #: queries re-dispatched onto a rebuilt pool
        self.redispatched = 0
        # main-process session work (describe) never runs in the pool, but
        # concurrent calls still share non-thread-safe sessions
        self._local_lock = threading.Lock()

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_worker,
            initargs=(self.store_root,),
        )

    def _rebuild_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace a broken pool exactly once, however many queries saw it die.

        Every in-flight query against a crashed worker observes the same
        ``BrokenProcessPool``; the identity check under the lock makes the
        first one rebuild and the rest reuse the fresh pool.
        """
        with self._pool_lock:
            if self._pool is broken:
                self._pool = self._make_pool()
                self.pool_rebuilds += 1
        broken.shutdown(wait=False)

    async def run(
        self,
        design: Design,
        digest: str,
        prop: str,
        method: str,
        options: Dict[str, object],
        absent: Optional[str] = None,
    ) -> Dict[str, object]:
        """The verdict of one query, computed in a pool worker.

        ``absent`` (see :meth:`InlineBackend.run`) is not forwarded: a
        worker reads its own store, ``store_root``, which need not be the
        one the caller found the verdict missing from.
        """
        loop = asyncio.get_running_loop()
        fault = self.fault_plan.exec_fault() if self.fault_plan is not None else None
        trace = None
        if obs_trace.TRACING:
            context = obs_trace.current_context()
            trace = context.to_traceparent() if context is not None else ""
        composition = design.custom_composition
        base = (digest, design.components, composition, design.name, prop, method, options)
        for attempt in range(self.MAX_DISPATCHES):
            pool = self._pool
            try:
                with obs_trace.span(
                    "backend.dispatch", backend=self.name, attempt=attempt
                ) as dispatch_span:
                    carried = (
                        dispatch_span.context.to_traceparent()
                        if dispatch_span is not obs_trace.NULL_SPAN
                        else trace
                    )
                    verdict = await loop.run_in_executor(
                        pool, partial(_worker_query, base + (fault, carried))
                    )
                if trace is not None:
                    shipped = verdict.pop(TRACE_SHIP_KEY, None)
                    if shipped:
                        obs_trace.get_tracer().adopt(shipped)
                return verdict
            except BrokenProcessPool as error:
                self._rebuild_pool(pool)
                obs_trace.add_event(
                    "backend.crash", backend=self.name, attempt=attempt
                )
                fault = None  # an injected crash fires once; re-dispatch clean
                if attempt + 1 == self.MAX_DISPATCHES:
                    raise BackendCrashed(
                        f"worker pool died {self.MAX_DISPATCHES} times computing "
                        f"{prop!r} on {digest[:12]}…; giving up after the bounded "
                        "re-dispatch"
                    ) from error
                self.redispatched += 1
                obs_trace.add_event(
                    "backend.redispatch", backend=self.name, attempt=attempt + 1
                )

    async def run_blocking(self, function):
        """Main-process session work, serialized and off the event loop."""
        loop = asyncio.get_running_loop()

        def call():
            with self._local_lock:
                return function()

        return await loop.run_in_executor(None, call)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def describe(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "workers": self.workers,
            "store_root": self.store_root,
            "pool_rebuilds": self.pool_rebuilds,
            "redispatched": self.redispatched,
        }

    def fault_stats(self) -> Optional[Dict[str, object]]:
        return self.fault_plan.stats() if self.fault_plan is not None else None


class VerificationService:
    """One long-lived verification endpoint over a registry, a store, a pool.

    ``register()`` content-addresses a design; ``verify()`` (a coroutine)
    answers a property query as a JSON-safe verdict dictionary, going
    through, in order: the in-memory LRU verdict cache → the in-flight
    table (request coalescing) → the artifact store's persisted verdicts →
    the backend worker pool, whose sessions consult the store's compiled
    relations before compiling anything.  All counters are exposed by
    :meth:`stats` — ``computations`` is the instrumentation the coalescing
    and throughput benchmarks assert on.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        registry: Optional[DesignRegistry] = None,
        backend: Optional[object] = None,
        cache_size: int = 1024,
        max_inflight: Optional[int] = None,
        max_queue: int = 0,
        slow_query_threshold: float = 0.0,
    ):
        self.registry = registry or DesignRegistry()
        self.store = store
        self.backend = backend or InlineBackend()
        self.cache_size = cache_size
        #: the unified observability surface of this service: every legacy
        #: counter below is also scraped into the canonical ``repro_*``
        #: namespace through these collectors (see :meth:`metrics`)
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(obs_collect.service_collector(self))
        if store is not None:
            self.metrics.register_collector(obs_collect.store_collector(store))
        self.metrics.register_collector(
            obs_collect.tracer_collector(obs_trace.get_tracer())
        )
        #: computed queries slower than ``slow_query_threshold`` seconds
        #: (0 = disabled) land here with their trace id and stage breakdown
        self.slow_queries = SlowQueryLog(threshold=slow_query_threshold)
        #: admission control: at most ``max_inflight + max_queue`` *distinct*
        #: computations in flight (``None`` = unbounded — the historical
        #: behavior).  Cache hits and coalesced riders are always admitted;
        #: only a query that would start a new computation can be rejected.
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        #: query → its verdict's JSON bytes (see :meth:`verify_encoded`)
        self._cache: "OrderedDict[QueryKey, bytes]" = OrderedDict()
        self._inflight: Dict[QueryKey, "asyncio.Task"] = {}
        #: underlying computations actually run (misses everywhere: LRU,
        #: in-flight table, verdict store) — the benchmark instrumentation
        self.computations = 0
        #: queries that joined an identical in-flight computation
        self.coalesced = 0
        self.cache_hits = 0
        self.verdict_store_hits = 0
        self.queries = 0
        #: queries rejected by admission control (typed ServiceOverloaded)
        self.rejected = 0
        #: queries whose caller's deadline expired (typed DeadlineExceeded)
        self.deadline_exceeded = 0
        #: computations that raised (typed QueryFailed / backend errors)
        self.failures = 0
        # EWMA of recent computation durations: the retry_after estimator
        self._ewma_seconds = 0.0
        self._ewma_samples = 0
        #: the event loop behind the ``*_blocking`` wrappers, on its own
        #: thread (made on first use, closed by :meth:`close`)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._loop_lock = threading.Lock()

    # -- registration -------------------------------------------------------------
    def register(
        self,
        design: Union[Design, str, Iterable[ProcessLike]],
        name: Optional[str] = None,
    ) -> str:
        """Content-address a design and hook its session to the artifact store."""
        digest = self.registry.register(design, name=name)
        entry = self.registry.get(digest)
        if self.store is not None and entry.context.artifact_cache is None:
            entry.context.artifact_cache = self.store
        return digest

    def _resolve(self, target: Union[Design, str, Iterable[ProcessLike]]) -> str:
        """A digest for ``target``: look it up when it already is one,
        register it otherwise."""
        if isinstance(target, str) and _is_digest(target):
            if target not in self.registry:
                raise KeyError(f"no design registered under digest {target!r}")
            return target
        return self.register(target)

    # -- the query path -----------------------------------------------------------
    def _retry_after_hint(self) -> float:
        """When a rejected caller should come back: the in-flight backlog
        divided by the worker pool, priced at the recent average compute."""
        average = self._ewma_seconds if self._ewma_samples else 0.5
        workers = max(1, int(getattr(self.backend, "workers", 1) or 1))
        backlog = max(1, len(self._inflight))
        return round(max(0.05, average * backlog / workers), 3)

    async def verify(
        self,
        target: Union[Design, str, Iterable[ProcessLike]],
        prop: str,
        method: str = "auto",
        deadline: Optional[float] = None,
        **options: object,
    ) -> Dict[str, object]:
        """One property query; returns a JSON-safe verdict dictionary.

        The dictionary is decoded afresh from the cached encoding (see
        :meth:`verify_encoded`, which takes the same arguments), so it is
        the caller's to mutate and equals what a socket client decodes.
        """
        return json.loads(
            await self.verify_encoded(target, prop, method, deadline, **options)
        )

    async def verify_encoded(
        self,
        target: Union[Design, str, Iterable[ProcessLike]],
        prop: str,
        method: str = "auto",
        deadline: Optional[float] = None,
        **options: object,
    ) -> bytes:
        """One property query; returns the verdict as UTF-8 JSON bytes.

        ``target`` is a registered digest or anything :meth:`register`
        accepts.  Identical concurrent queries are coalesced onto one
        computation; completed ones are served from the LRU cache.

        ``deadline`` (seconds, relative) bounds how long *this caller*
        waits: expiry raises :class:`DeadlineExceeded` while the shared
        computation runs on for coalesced riders and the caches.  When
        admission control is configured and the in-flight table is full, a
        query that would start a new computation is rejected immediately
        with :class:`ServiceOverloaded` (its ``retry_after`` is the
        backoff hint) — bounded memory beats an unbounded queue.
        """
        self.queries += 1
        with obs_trace.span("service.verify", prop=prop, method=method) as qspan:
            if isinstance(target, str) and _is_digest(target):
                digest = self._resolve(target)  # a dict lookup: loop-safe
            else:
                # registration parses, normalizes and canonically prints — off
                # the loop, and serialized with verification (shared sessions)
                digest = await self.backend.run_blocking(
                    partial(self.register, target)
                )
            qspan.set_tag("digest", digest[:12])
            key: QueryKey = (
                digest,
                canonical_property(prop),
                method,
                options_fingerprint(options),
            )
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                qspan.set_tag("outcome", "cache_hit")
                return cached
            task = self._inflight.get(key)
            if task is None:
                bound = self.max_inflight
                if bound is not None and len(self._inflight) >= bound + self.max_queue:
                    self.rejected += 1
                    hint = self._retry_after_hint()
                    qspan.set_tag("outcome", "rejected")
                    raise ServiceOverloaded(
                        f"{len(self._inflight)} computations in flight (limit "
                        f"{bound} + {self.max_queue} queued); retry in ~{hint:g}s",
                        retry_after=hint,
                    )
                qspan.set_tag("outcome", "computed")
                task = asyncio.ensure_future(
                    self._compute(key, digest, prop, method, options)
                )
                # a failing computation whose every waiter timed out must not
                # leave an unretrieved-exception warning behind
                task.add_done_callback(_retrieve_exception)
                self._inflight[key] = task
            elif task.get_loop() is not asyncio.get_running_loop():
                # a task can be awaited only on its own event loop: a caller
                # on another loop computes on its own
                qspan.set_tag("outcome", "computed")
                task = asyncio.ensure_future(
                    self._compute(key, digest, prop, method, options)
                )
                task.add_done_callback(_retrieve_exception)
            else:
                self.coalesced += 1
                qspan.set_tag("outcome", "coalesced")
                qspan.set_tag("coalesced", True)
            # shield: one caller's cancellation must not abort the shared work
            waiter = asyncio.shield(task)
            if deadline is None:
                return await waiter
            try:
                return await asyncio.wait_for(waiter, timeout=deadline)
            except asyncio.TimeoutError:
                self.deadline_exceeded += 1
                qspan.set_tag("outcome", "deadline_exceeded")
                raise DeadlineExceeded(
                    f"{prop!r} on {digest[:12]}… exceeded its {deadline:g}s deadline "
                    "(the shared computation continues for other callers)"
                ) from None

    async def _stored_verdict(self, key: QueryKey) -> Optional[Dict[str, object]]:
        """A persisted verdict for this exact query, when the store has one.

        The file read runs in the default executor — disk I/O must not
        stall the event loop (and needs no session lock)."""
        if self.store is None:
            return None
        digest, prop, method, options_key = key
        loop = asyncio.get_running_loop()
        verdict = await loop.run_in_executor(
            None,
            obs_trace.bind(
                partial(self.store.load_verdict, digest, prop, method, options_key)
            ),
        )
        if verdict is not None:
            self.verdict_store_hits += 1
        return verdict

    def _persist(self, key: QueryKey, verdict: Dict[str, object]) -> None:
        """Write a computed verdict to the store unless it is there already."""
        digest, prop, method, options_key = key
        if not self.store.has(digest, self.store.query_kind(prop, method, options_key)):
            self.store.store_verdict(digest, prop, method, options_key, verdict)

    async def _compute(
        self,
        key: QueryKey,
        digest: str,
        prop: str,
        method: str,
        options: Dict[str, object],
    ) -> bytes:
        # ensure_future copied the first caller's context, so this span —
        # and everything below it, store reads included — parents under
        # that caller's service.verify span; coalesced riders' own spans
        # reference the same trace through the shared computation
        compute_span = obs_trace.span(
            "service.compute", prop=prop, method=method, digest=digest[:12]
        )
        try:
            with compute_span as cspan:
                verdict = await self._stored_verdict(key)
                if verdict is not None:
                    cspan.set_tag("outcome", "store_hit")
                else:
                    cspan.set_tag("outcome", "computed")
                    self.computations += 1
                    design = self.registry.get(digest)
                    # the session reads this very store object when it shares
                    # the store; it just missed, so one read is enough
                    absent = (
                        self.store.query_kind(*key[1:])
                        if self.store is not None and design.context.artifact_cache is self.store
                        else None
                    )
                    started = time.perf_counter()
                    try:
                        verdict = dict(
                            await self.backend.run(
                                design, digest, prop, method, dict(options), absent
                            )
                        )
                    except asyncio.CancelledError:
                        raise
                    except ServiceError:
                        self.failures += 1
                        raise
                    except Exception as error:
                        # the correct-or-typed-error invariant: whatever escaped
                        # the backend (a VerificationError, an injected fault, a
                        # pickling problem) reaches callers as one typed class
                        # with the original type and message preserved
                        self.failures += 1
                        raise QueryFailed(f"{type(error).__name__}: {error}") from error
                    elapsed = time.perf_counter() - started
                    self._ewma_seconds = (
                        elapsed
                        if self._ewma_samples == 0
                        else 0.7 * self._ewma_seconds + 0.3 * elapsed
                    )
                    self._ewma_samples += 1
                    if self.slow_queries.enabled:
                        cost = verdict.get("cost") or {}
                        self.slow_queries.observe(
                            elapsed,
                            digest,
                            prop,
                            method,
                            trace_id=cspan.trace_id,
                            stages=cost.get("stages") if isinstance(cost, dict) else None,
                        )
                    if self.store is not None:
                        # the session persisted the verdict as it computed it
                        # whenever its artifact graph shares this store; write
                        # only what it did not (another store, a verdict its
                        # memory tier already held).  Best-effort:
                        # ArtifactStore.put absorbs write failures
                        loop = asyncio.get_running_loop()
                        await loop.run_in_executor(
                            None,
                            obs_trace.bind(partial(self._persist, key, verdict)),
                        )
                verdict["digest"] = digest
        finally:
            self._inflight.pop(key, None)
        encoded = json.dumps(verdict).encode("utf-8")
        self._cache[key] = encoded
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return encoded

    def _run_blocking(self, coroutine):
        """Run ``coroutine`` on the service's own event loop; its result.

        The loop lives on one daemon thread for the service's lifetime, so a
        synchronous call costs a hand-off to that thread instead of an event
        loop's (and its default executor's) set-up and tear-down per call.
        Callers on any number of threads share the loop and with it the
        in-flight table, so their identical queries coalesce.  The caller's
        contextvars (the active trace span) ride along with the coroutine.
        """
        with self._loop_lock:
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._loop_thread = threading.Thread(
                    target=self._loop.run_forever, name="repro-service-loop", daemon=True
                )
                self._loop_thread.start()
            loop = self._loop
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result()

    def verify_blocking(
        self,
        target: Union[Design, str, Iterable[ProcessLike]],
        prop: str,
        method: str = "auto",
        deadline: Optional[float] = None,
        **options: object,
    ) -> Dict[str, object]:
        """Synchronous :meth:`verify`, safe to call from several threads."""
        return self._run_blocking(
            self.verify(target, prop, method, deadline=deadline, **options)
        )

    # -- analysis artifacts ---------------------------------------------------------
    async def describe(
        self, target: Union[Design, str, Iterable[ProcessLike]]
    ) -> Dict[str, object]:
        """Per-process analysis summaries of a design, served from the store.

        On the first call the composition and component analyses are
        computed — through the backend's ``run_blocking``, so the shared
        sessions are never touched from the event-loop thread nor
        concurrently with a verification — and persisted under the design
        digest; later calls, and later service runs over the same store,
        answer from disk without touching the analysis pipeline.
        """
        digest = self._resolve(target)
        if self.store is not None:
            stored = self.store.load_analysis(digest)
            if stored is not None:
                return stored
        design = self.registry.get(digest)

        def compute() -> Dict[str, object]:
            return {
                "digest": digest,
                "design": design.name,
                "composition": design.analysis.summary(),
                "components": [
                    analysis.summary() for analysis in design.component_analyses()
                ],
            }

        summary = await self.backend.run_blocking(compute)
        if self.store is not None:
            self.store.store_analysis(digest, summary)
        return summary

    def describe_blocking(
        self, target: Union[Design, str, Iterable[ProcessLike]]
    ) -> Dict[str, object]:
        """Synchronous :meth:`describe`, safe to call from several threads."""
        return self._run_blocking(self.describe(target))

    # -- lifecycle / reporting -------------------------------------------------------
    def artifact_stats(self) -> Dict[str, object]:
        """Per-stage artifact-graph counters, summed over the live sessions.

        The service's verdict cache is just the top tier of the same graph
        every registered session resolves through; this is the view below
        it — which pipeline stages hit their memo, reloaded from the store,
        were computed, or were invalidated, per stage, across all designs.
        """
        stages: Dict[str, Dict[str, int]] = {}
        contexts: Dict[int, object] = {}
        for _digest, design in self.registry.entries():
            # designs registered over one shared context report one graph;
            # summing it per design would double-count every stage
            contexts.setdefault(id(design.context), design.context)
        for context in contexts.values():
            for stage, counters in context.graph.stats()["stages"].items():
                totals = stages.setdefault(
                    stage, {field: 0 for field in COUNTER_FIELDS}
                )
                for field in COUNTER_FIELDS:
                    totals[field] += counters.get(field, 0)
        return {
            "stages": stages,
            "sessions": len(self.registry),
            "contexts": len(contexts),
        }

    def fault_stats(self) -> list:
        """Per-site injection counters of every fault plan in this stack.

        One shared plan (the usual deployment) reports once; distinct
        store/backend plans report separately."""
        plans = []
        for holder in (self.store, self.backend):
            plan = getattr(holder, "fault_plan", None)
            if plan is not None and all(plan is not seen for seen in plans):
                plans.append(plan)
        return [plan.stats() for plan in plans]

    def stats(self) -> Dict[str, object]:
        """The historical nested stats dict.

        These keys are **deprecated aliases**: the flat, canonically-named
        view of the same counters is ``self.metrics.snapshot()`` (the
        ``repro_*`` families served by ``repro-serve metrics``); the nested
        shape is kept one release for existing consumers.
        """
        return {
            "registry": self.registry.stats(),
            "backend": self.backend.describe(),
            "store": self.store.stats() if self.store is not None else None,
            "cache": {"entries": len(self._cache), "limit": self.cache_size},
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "verdict_store_hits": self.verdict_store_hits,
            "coalesced": self.coalesced,
            "computations": self.computations,
            "inflight": len(self._inflight),
            "admission": {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "rejected": self.rejected,
            },
            "deadline_exceeded": self.deadline_exceeded,
            "failures": self.failures,
            "faults": self.fault_stats(),
            "artifacts": self.artifact_stats(),
            "slow_queries": self.slow_queries.stats(),
        }

    def close(self) -> None:
        with self._loop_lock:
            loop, thread = self._loop, self._loop_thread
            self._loop = self._loop_thread = None
        if loop is not None:
            asyncio.run_coroutine_threadsafe(_drain_loop(), loop).result()
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()
        self.backend.shutdown()
