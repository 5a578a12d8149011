"""The serving layer: content-addressed designs, persisted artifacts, one scheduler.

The paper's pipeline (analyze → check weak endochrony / isochrony → compile)
is fast per query and batchable, but every caller of the :mod:`repro.api`
facade still pays full recompilation and holds its own caches.  This package
adds the long-lived layer the ROADMAP's north star asks for:

* :class:`~repro.service.registry.DesignRegistry` — designs are
  content-addressed by the SHA-256 of their canonical printed source
  (:func:`repro.lang.printer.canonical_digest`), so two clients submitting
  the same design — however they built it — hit the same entry;
* :class:`~repro.service.store.ArtifactStore` — expensive intermediates
  (compiled BDD step relations, per-process analysis summaries) are
  persisted on disk under the same digests and reloaded in linear time,
  across service restarts and across worker processes;
* :class:`~repro.service.scheduler.VerificationService` — an asyncio
  request scheduler with request coalescing (identical in-flight
  ``(digest, prop, method)`` queries share one computation), an LRU verdict
  cache, and a bounded worker-pool backend (in-process threads or a process
  pool, the one that also shards ``Design.verify_many(parallel=N)``);
* :class:`~repro.service.client.ServiceClient` and
  ``python -m repro.service`` — a JSON-lines protocol over a local Unix
  socket plus the matching CLI (``serve`` / ``submit`` / ``query`` /
  ``stats`` / ``digest``), also installed as the ``repro-serve`` script;
* a fault-tolerance layer with a hard invariant — under any injected
  fault, a query returns either the exact fault-free verdict or a typed
  :class:`~repro.service.errors.ServiceError` subclass: checksummed,
  self-quarantining store objects, worker-crash recovery, per-query
  deadlines, bounded client retries, and admission control, all
  exercised deterministically by :class:`~repro.service.faults.FaultPlan`
  (``REPRO_FAULT_PLAN``) and pinned by ``tests/test_chaos.py``.

Quickstart (programmatic, no socket)::

    import asyncio
    from repro.service import ArtifactStore, VerificationService

    service = VerificationService(store=ArtifactStore("./artifacts"))
    digest = service.register(source_text)
    verdict = asyncio.run(service.verify(digest, "non-blocking"))
    assert verdict["holds"]
"""

from repro import _lazy_exports

_EXPORTS = {
    "BackendCrashed": ".errors",
    "DeadlineExceeded": ".errors",
    "QueryFailed": ".errors",
    "ServiceError": ".errors",
    "ServiceOverloaded": ".errors",
    "ServiceUnavailable": ".errors",
    "TransportError": ".errors",
    "FaultInjected": ".faults",
    "FaultPlan": ".faults",
    "DesignRegistry": ".registry",
    "ArtifactStore": ".store",
    "InlineBackend": ".scheduler",
    "ProcessPoolBackend": ".scheduler",
    "VerificationService": ".scheduler",
    "ServiceClient": ".client",
    "ServiceServer": ".server",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ArtifactStore",
    "BackendCrashed",
    "DeadlineExceeded",
    "DesignRegistry",
    "FaultInjected",
    "FaultPlan",
    "InlineBackend",
    "ProcessPoolBackend",
    "QueryFailed",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceServer",
    "ServiceUnavailable",
    "TransportError",
    "VerificationService",
]
