"""The span tracer — one trace per query, explicit context propagation.

A **span** is one timed operation (a transport round trip, a scheduler
decision, an artifact-graph stage, a store access, a backend execution)
carrying a ``trace_id`` shared by every span of the same originating query,
its own ``span_id``, its ``parent_id``, free-form ``tags`` and timestamped
``events``.  The tracer collects finished spans; exporters render them as
JSON-lines event logs or Chrome trace-event JSON (viewable in Perfetto —
see :func:`repro.obs.export.chrome_trace`).

**Propagation is explicit.**  Within one thread the current span rides a
:class:`contextvars.ContextVar`; across every boundary the context is
carried by hand, because that is the only propagation that survives the
serving stack's real topology:

* **client → server** — the client injects ``traceparent``
  (``"<trace_id>-<span_id>"``) into the JSON-lines request payload; the
  server extracts it and parents its ``server.request`` span under it;
* **event loop → worker thread** — ``asyncio`` executors do not copy
  context, so the inline backend captures :func:`current_context` and
  re-:func:`activate`\\ s it inside the worker thread;
* **scheduler → process-pool worker** — workers are separate processes:
  the traceparent travels in the task payload, the worker records its
  spans locally and ships them back beside the verdict, and the parent
  :meth:`Tracer.adopt`\\ s them into its own collection.  (``REPRO_TRACE``
  in the environment additionally lets freshly spawned workers and CLI
  children enable tracing at startup — see :func:`configure_from_env`.)

**Cost when off.**  The module-level :data:`TRACING` flag is the sampling
gate every instrumented call site checks first; with tracing off (the
default) an instrumentation point is one global read and a falsy branch —
the ≤5 % warm-path budget ``benchmarks/bench_obs.py`` gates.  Span
*values* carry wall-clock timestamps (for Perfetto alignment across
processes); nothing a test asserts on depends on them — assertions pin
span names, tags, events and parentage, which are deterministic.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterable, List, Optional, Union

#: environment variable that enables tracing in child processes / CLI runs
TRACE_ENV = "REPRO_TRACE"
#: environment variable carrying a traceparent for spawned children
TRACEPARENT_ENV = "REPRO_TRACEPARENT"

#: the global sampling gate — instrumented call sites check this first.
#: Mirrors ``get_tracer().enabled``; only :func:`configure` writes it.
TRACING = False


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        return f"{self.trace_id}-{self.span_id}"

    @classmethod
    def from_traceparent(cls, text: str) -> Optional["SpanContext"]:
        """Parse ``"<trace_id>-<span_id>"``; ``None`` on anything malformed."""
        if not isinstance(text, str):
            return None
        trace_id, separator, span_id = text.rpartition("-")
        if not separator or not trace_id or not span_id:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """One timed, tagged operation of a trace."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "tags",
        "events",
        "start",
        "duration",
        "_t0",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        tags: Optional[Dict[str, object]] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags: Dict[str, object] = dict(tags) if tags else {}
        self.events: List[Dict[str, object]] = []
        self.start = time.time()
        self._t0 = time.perf_counter()
        self.duration = 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set_tag(self, key: str, value: object) -> "Span":
        self.tags[key] = value
        return self

    def set_tags(self, tags: Dict[str, object]) -> "Span":
        self.tags.update(tags)
        return self

    def add_event(self, name: str, **tags: object) -> "Span":
        """A point-in-time annotation (a fault fired, a retry, a heal)."""
        event: Dict[str, object] = {
            "name": name,
            "offset": round(time.perf_counter() - self._t0, 6),
        }
        if tags:
            event["tags"] = tags
        self.events.append(event)
        return self

    def finish(self) -> "Span":
        self.duration = time.perf_counter() - self._t0
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "pid": os.getpid(),
            "tags": self.tags,
            "events": self.events,
        }


class _NullSpan:
    """The no-op span handed out when tracing is off (or the trace is not
    sampled); every mutator is an attribute lookup and a return."""

    __slots__ = ()
    context = None
    trace_id = span_id = parent_id = None
    tags: Dict[str, object] = {}
    events: List[Dict[str, object]] = []

    def set_tag(self, key: str, value: object) -> "_NullSpan":
        return self

    def set_tags(self, tags: Dict[str, object]) -> "_NullSpan":
        return self

    def add_event(self, name: str, **tags: object) -> "_NullSpan":
        return self

    def finish(self) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()

#: contextvar sentinel: the enclosing trace was *not* sampled — descendants
#: must stay no-ops instead of re-drawing the sampling decision
_NOT_SAMPLED = object()

#: the active span (a :class:`Span`), a bare :class:`SpanContext` activated
#: from a remote parent, the not-sampled sentinel, or None
_CURRENT: "contextvars.ContextVar[object]" = contextvars.ContextVar(
    "repro_obs_span", default=None
)


class Tracer:
    """Collects finished spans, bounded, thread-safe.

    ``sample`` < 1.0 makes each new *root* span (one with no parent
    anywhere) draw from a seeded :class:`random.Random` — deterministic
    per tracer instance, never the shared :mod:`random` state; descendants
    of an unsampled root are suppressed without re-drawing.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_spans: int = 10000,
        sample: float = 1.0,
        seed: int = 0,
    ):
        self.enabled = enabled
        self.max_spans = max_spans
        self.sample = sample
        self.spans: List[Dict[str, object]] = []
        #: spans lost to the ``max_spans`` bound
        self.dropped = 0
        #: spans finished into this tracer since construction (monotone)
        self.finished = 0
        #: spans adopted from worker processes
        self.adopted = 0
        self._sampler = Random(seed)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- identities ---------------------------------------------------------------
    def _new_id(self) -> str:
        with self._lock:
            serial = next(self._ids)
        return f"{os.getpid():x}.{serial:x}"

    # -- span lifecycle -----------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: Optional[Union[Span, SpanContext]] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> Union[Span, _NullSpan]:
        """A started span under ``parent`` (or the current context, or a new
        trace); :data:`NULL_SPAN` when tracing is off or the trace unsampled."""
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            current = _CURRENT.get()
            if current is _NOT_SAMPLED:
                return NULL_SPAN
            if isinstance(current, (Span, SpanContext)):
                parent = current
        if isinstance(parent, Span):
            parent = parent.context
        if parent is None:
            if self.sample < 1.0 and self._sampler.random() >= self.sample:
                return NULL_SPAN
            trace_id = self._new_id()
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(trace_id, self._new_id(), parent_id, name, tags)

    def record(self, span: Union[Span, _NullSpan]) -> None:
        """File a finished span (no-op spans are silently ignored)."""
        if span is NULL_SPAN or isinstance(span, _NullSpan):
            return
        payload = span.to_dict()
        with self._lock:
            self.finished += 1
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return
            self.spans.append(payload)

    def adopt(self, spans: Iterable[Dict[str, object]]) -> int:
        """Merge span dicts recorded in another process (a pool worker)."""
        count = 0
        with self._lock:
            for payload in spans:
                self.finished += 1
                if len(self.spans) >= self.max_spans:
                    self.dropped += 1
                    continue
                self.spans.append(dict(payload))
                self.adopted += 1
                count += 1
        return count

    # -- access / export -----------------------------------------------------------
    def drain(self) -> List[Dict[str, object]]:
        """Pop every collected span (the worker-process shipping primitive)."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def trace(self, trace_id: str) -> List[Dict[str, object]]:
        """Every collected span of one trace, in finish order."""
        with self._lock:
            return [span for span in self.spans if span["trace_id"] == trace_id]

    def trace_ids(self) -> List[str]:
        seen: List[str] = []
        with self._lock:
            for span in self.spans:
                if span["trace_id"] not in seen:
                    seen.append(span["trace_id"])
        return seen

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "collected": len(self.spans),
                "finished": self.finished,
                "adopted": self.adopted,
                "dropped": self.dropped,
                "sample": self.sample,
            }


#: the process-global tracer every instrumented call site records into
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def configure(
    enabled: Optional[bool] = None,
    max_spans: Optional[int] = None,
    sample: Optional[float] = None,
    seed: Optional[int] = None,
) -> Tracer:
    """Reconfigure the global tracer in place; returns it."""
    global TRACING
    if enabled is not None:
        _TRACER.enabled = bool(enabled)
    if max_spans is not None:
        _TRACER.max_spans = int(max_spans)
    if sample is not None:
        _TRACER.sample = float(sample)
    if seed is not None:
        _TRACER._sampler = Random(seed)
    TRACING = _TRACER.enabled
    return _TRACER


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> Tracer:
    """Enable tracing when ``REPRO_TRACE`` is a truthy value — how spawned
    worker processes and CLI children inherit the tracing decision."""
    environment = os.environ if environ is None else environ
    flag = environment.get(TRACE_ENV, "").strip().lower()
    if flag in ("1", "true", "on", "yes"):
        configure(enabled=True)
    return _TRACER


def reset() -> Tracer:
    """Discard collected spans, restore defaults, disable tracing (test
    hygiene — a reset tracer behaves like a freshly constructed one)."""
    global TRACING
    _TRACER.drain()
    _TRACER.enabled = False
    _TRACER.dropped = 0
    _TRACER.finished = 0
    _TRACER.adopted = 0
    _TRACER.max_spans = 10000
    _TRACER.sample = 1.0
    _TRACER._sampler = Random(0)
    TRACING = False
    return _TRACER


def enabled() -> bool:
    return TRACING


# -- the context API ------------------------------------------------------------
def current_span() -> Union[Span, _NullSpan]:
    """The active :class:`Span` of this execution context (NULL when none)."""
    value = _CURRENT.get()
    return value if isinstance(value, Span) else NULL_SPAN


def current_context() -> Optional[SpanContext]:
    """The active span's context — what :func:`inject` would propagate."""
    value = _CURRENT.get()
    if isinstance(value, Span):
        return value.context
    if isinstance(value, SpanContext):
        return value
    return None


def add_event(name: str, **tags: object) -> None:
    """Annotate the active span (cheap no-op when tracing is off)."""
    if not TRACING:
        return
    value = _CURRENT.get()
    if isinstance(value, Span):
        value.add_event(name, **tags)


def tag_current(**tags: object) -> None:
    """Tag the active span (cheap no-op when tracing is off)."""
    if not TRACING:
        return
    value = _CURRENT.get()
    if isinstance(value, Span):
        value.set_tags(tags)


def bind(function):
    """Wrap ``function`` so it runs under the *current* context wherever it
    is later called — the propagation shim for executor dispatch
    (``run_in_executor`` does not copy contextvars into worker threads).
    Returns ``function`` unchanged when tracing is off."""
    if not TRACING:
        return function
    context = current_context()
    if context is None:
        return function

    def bound(*args, **kwargs):
        with activate(context):
            return function(*args, **kwargs)

    return bound


def push(value: Union[Span, SpanContext]) -> "contextvars.Token":
    """Make ``value`` the ambient context; pair with :func:`pop` in a
    ``finally`` — the non-context-manager half of the API for call sites
    whose cleanup already lives in a ``try/finally``."""
    return _CURRENT.set(value)


def pop(token: "contextvars.Token") -> None:
    _CURRENT.reset(token)


@contextmanager
def activate(context: Optional[SpanContext]):
    """Make ``context`` the parent of spans started in this block — the
    receiving half of every explicit propagation (server request, worker
    thread, pool worker)."""
    if context is None:
        yield
        return
    token = _CURRENT.set(context)
    try:
        yield
    finally:
        _CURRENT.reset(token)


class _NullContext:
    """The context manager :func:`span` hands out when tracing is off — a
    shared singleton, so the disabled fast path allocates nothing (a
    generator-based contextmanager would cost ~5× as much per call)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


def span(name: str, parent: Optional[Union[Span, SpanContext]] = None, **tags: object):
    """The instrumentation entry point: a context-managed span.

    With tracing off this returns a no-op context manager after one global
    check.  On, the span parents under ``parent`` or the ambient context,
    becomes the ambient context for the block, and is recorded on exit.
    """
    if not TRACING:
        return _NULL_CONTEXT
    return _live_span(name, parent, tags)


@contextmanager
def _live_span(name: str, parent, tags: Dict[str, object]):
    opened = _TRACER.start_span(name, parent=parent, tags=tags or None)
    if opened is NULL_SPAN:
        token = _CURRENT.set(_NOT_SAMPLED)
        try:
            yield NULL_SPAN
        finally:
            _CURRENT.reset(token)
        return
    token = _CURRENT.set(opened)
    try:
        yield opened
    finally:
        _CURRENT.reset(token)
        opened.finish()
        _TRACER.record(opened)


# -- carrier propagation ---------------------------------------------------------
def inject(carrier: Dict[str, object]) -> Dict[str, object]:
    """Put the current context into a JSON-safe carrier (a request payload)."""
    context = current_context()
    if context is not None and TRACING:
        carrier["traceparent"] = context.to_traceparent()
    return carrier


def extract(carrier: Dict[str, object]) -> Optional[SpanContext]:
    """The :class:`SpanContext` a carrier propagates, if any."""
    value = carrier.get("traceparent")
    if not value:
        return None
    return SpanContext.from_traceparent(str(value))


def inject_env(environ: Dict[str, str]) -> Dict[str, str]:
    """Put the tracing decision and current context into an environment —
    how a spawned CLI child continues the trace (`REPRO_TRACE` /
    ``REPRO_TRACEPARENT``)."""
    if TRACING:
        environ[TRACE_ENV] = "1"
        context = current_context()
        if context is not None:
            environ[TRACEPARENT_ENV] = context.to_traceparent()
    return environ


def extract_env(environ: Optional[Dict[str, str]] = None) -> Optional[SpanContext]:
    environment = os.environ if environ is None else environ
    value = environment.get(TRACEPARENT_ENV)
    if not value:
        return None
    return SpanContext.from_traceparent(value)


def span_tree(spans: Iterable[Dict[str, object]], trace_id: Optional[str] = None):
    """Nest span dicts into ``{span, children: [...]}`` trees — the shape the
    docs snippet walks.  Roots are spans whose parent is absent (or outside
    the collected set); ``trace_id`` filters to one trace first."""
    selected = [
        span for span in spans if trace_id is None or span["trace_id"] == trace_id
    ]
    nodes = {
        span["span_id"]: {"span": span, "children": []} for span in selected
    }
    roots = []
    for span in selected:
        node = nodes[span["span_id"]]
        parent = nodes.get(span.get("parent_id"))
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots
