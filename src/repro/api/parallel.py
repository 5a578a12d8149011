"""Process-pool sharding for independent verification queries.

``Design.verify_many(props, parallel=N)`` shards its queries over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker process
builds the design *once* (in the pool initializer) and keeps its own
memoized :class:`~repro.api.session.AnalysisContext`, so every query routed
to that worker reuses the worker's normalizations, clock analyses, LTSs and
BDD manager — the same sharing the sequential session enjoys, minus the
cross-worker overlap.

Verdicts crossing the process boundary are *sanitized*: the ``report``
payload (which can hold a whole :class:`ProcessAnalysis` and its BDD
manager) is dropped, and any diagnostic witness that does not pickle is
replaced by its ``repr``.  Callers that need full reports should run
sequentially (``parallel=None``), where verdicts are returned as-is.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.results import Diagnostic, Verdict

#: one task: (prop, method, options)
QueryTask = Tuple[str, str, Dict[str, object]]

_WORKER: Dict[str, object] = {}


def _picklable(value):
    if value is None:
        return None
    try:
        pickle.dumps(value)
        return value
    except Exception:
        return repr(value)


def sanitize_verdict(verdict: Verdict) -> Verdict:
    """A copy of ``verdict`` safe to send across a process boundary."""
    diagnostics = [
        Diagnostic(d.name, d.holds, d.detail, _picklable(d.witness))
        for d in verdict.diagnostics
    ]
    return Verdict(
        prop=verdict.prop,
        subject=verdict.subject,
        holds=verdict.holds,
        method=verdict.method,
        diagnostics=diagnostics,
        cost=verdict.cost,
        report=None,
    )


def _initialize_worker(components, name: str, store_root: Optional[str] = None) -> None:
    from repro.api.session import Design

    design = Design(name=name, components=list(components))
    if store_root:
        # the parent session's artifact store, re-opened in this worker: the
        # worker warm-starts from persisted relations/diagnoses/verdicts and
        # persists what it computes for every later session and worker
        from repro.service.store import ArtifactStore

        design.context.artifact_cache = ArtifactStore(store_root)
    _WORKER["design"] = design


def _run_query(task: QueryTask) -> Verdict:
    prop, method, options = task
    return sanitize_verdict(_WORKER["design"].verify(prop, method, **options))


def run_queries(
    components: Sequence[object],
    name: str,
    tasks: Sequence[QueryTask],
    parallel: int,
    store_root: Optional[str] = None,
) -> List[Verdict]:
    """Run the query tasks over a pool of ``parallel`` worker processes.

    Results come back in task order.  The pool is created per call: the
    dominant cost of a batch worth parallelizing is the queries themselves,
    and a fresh pool keeps worker state coupled to the design it was
    initialized with.  ``store_root``, when the parent session has an
    on-disk artifact store, points every worker at the same store, so the
    cross-worker overlap the per-worker memos cannot capture is served from
    persisted artifacts instead.

    A worker killed mid-batch (OOM killer, a crashing native extension)
    breaks the whole pool; queries are deterministic and side-effect free,
    so the batch is retried once on a fresh pool before giving up.
    """

    def _run_batch() -> List[Verdict]:
        with ProcessPoolExecutor(
            max_workers=parallel,
            initializer=_initialize_worker,
            initargs=(tuple(components), name, store_root),
        ) as pool:
            return list(pool.map(_run_query, tasks))

    try:
        return _run_batch()
    except BrokenProcessPool:
        return _run_batch()
