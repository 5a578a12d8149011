"""repro.obs — unified tracing, metrics, and profiling for the whole stack.

A stdlib-only leaf package (everything above — api, service, bdd —
imports it; it imports none of them):

* :mod:`repro.obs.metrics` — the metrics registry: counters, gauges,
  log-scale histograms, collector scraping, JSON snapshots.
* :mod:`repro.obs.trace` — the span tracer with explicit context
  propagation across threads, the JSON-lines protocol, and process-pool
  workers.
* :mod:`repro.obs.collect` — collectors mapping every legacy ``stats()``
  surface onto the canonical ``repro_*`` metric namespace.
* :mod:`repro.obs.export` — Prometheus text exposition (+ validator),
  Chrome trace-event JSON, and the shared CLI table formatter.
* :mod:`repro.obs.profile` — the slow-query log and per-span BDD tagging.

The two cheap globals every instrumented call site keys off:
``trace.TRACING`` (the sampling gate — one module-global read when off)
and ``metrics.GLOBAL`` (the process-wide registry).
"""

from repro import _lazy_exports

_EXPORTS = {
    "GLOBAL": ".metrics",
    "LATENCY_BUCKETS": ".metrics",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "reset_global": ".metrics",
    "NULL_SPAN": ".trace",
    "Span": ".trace",
    "SpanContext": ".trace",
    "Tracer": ".trace",
    "activate": ".trace",
    "add_event": ".trace",
    "bind": ".trace",
    "configure": ".trace",
    "configure_from_env": ".trace",
    "current_context": ".trace",
    "current_span": ".trace",
    "enabled": ".trace",
    "extract": ".trace",
    "extract_env": ".trace",
    "get_tracer": ".trace",
    "inject": ".trace",
    "inject_env": ".trace",
    "pop": ".trace",
    "push": ".trace",
    "reset": ".trace",
    "span": ".trace",
    "span_tree": ".trace",
    "tag_current": ".trace",
    "chrome_trace": ".export",
    "format_table": ".export",
    "flatten_stats": ".export",
    "parse_prometheus": ".export",
    "snapshot_rows": ".export",
    "to_prometheus": ".export",
    "write_chrome_trace": ".export",
    "SlowQueryLog": ".profile",
    "bdd_tag_delta": ".profile",
    "bdd_tags": ".profile",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
