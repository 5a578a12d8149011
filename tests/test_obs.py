"""repro.obs: the tracer, the metrics registry, exporters, propagation.

Unit coverage for the primitives (span lifecycle, context propagation
across threads and carriers, registry instruments and collectors, the
Prometheus and Chrome exporters) plus the acceptance scenario the issue
pins: one traced client query produces **one** trace whose spans cover the
transport, the scheduler (including coalesced riders), the artifact-graph
stages, the store accesses and the backend execution — and that trace
exports to Chrome trace-event JSON without loss.

Tracing is process-global state, so every test runs under the autouse
``clean_obs`` fixture that resets the tracer and disables tracing on the
way out; assertions pin names, tags, parentage and events — never
wall-clock values.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import obs
from repro.obs import collect as obs_collect
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.service import (
    ArtifactStore,
    InlineBackend,
    ProcessPoolBackend,
    ServiceClient,
    ServiceError,
    ServiceServer,
    VerificationService,
)

FILTER_SOURCE = """
process filter (x) returns (y) {
  y := x when x;
}
"""


@pytest.fixture(autouse=True)
def clean_obs():
    obs_trace.reset()
    obs_metrics.reset_global()
    yield
    obs_trace.reset()
    obs_metrics.reset_global()


def spans_by_name(spans):
    table = {}
    for span in spans:
        table.setdefault(span["name"], []).append(span)
    return table


# ---------------------------------------------------------------------------
# tracer primitives
# ---------------------------------------------------------------------------

def test_spans_nest_under_the_ambient_context():
    obs_trace.configure(enabled=True)
    with obs_trace.span("outer", kind="test") as outer:
        with obs_trace.span("inner") as inner:
            assert inner.trace_id == outer.trace_id
            assert inner.parent_id == outer.span_id
            assert obs_trace.current_span() is inner
        assert obs_trace.current_span() is outer
    spans = obs_trace.get_tracer().spans
    assert [span["name"] for span in spans] == ["inner", "outer"]
    assert spans[1]["parent_id"] is None
    assert spans[1]["tags"] == {"kind": "test"}


def test_tracing_off_yields_null_spans_and_records_nothing():
    assert obs_trace.TRACING is False
    with obs_trace.span("anything") as span:
        assert span is obs_trace.NULL_SPAN
        span.set_tag("ignored", 1).add_event("ignored")
        obs_trace.add_event("also-ignored")
        obs_trace.tag_current(x=1)
    assert obs_trace.get_tracer().spans == []


def test_events_and_tags_land_on_the_active_span():
    obs_trace.configure(enabled=True)
    with obs_trace.span("op") as span:
        obs_trace.add_event("fault.injected", site="exec.crash")
        obs_trace.tag_current(outcome="ok")
    assert span.tags["outcome"] == "ok"
    [event] = span.events
    assert event["name"] == "fault.injected"
    assert event["tags"] == {"site": "exec.crash"}
    assert event["offset"] >= 0


def test_traceparent_round_trips_through_a_carrier():
    obs_trace.configure(enabled=True)
    with obs_trace.span("root") as root:
        carrier = obs_trace.inject({"op": "verify"})
    context = obs_trace.extract(carrier)
    assert context == root.context
    assert obs_trace.extract({"op": "verify"}) is None
    assert obs_trace.SpanContext.from_traceparent("garbage") is None
    assert obs_trace.SpanContext.from_traceparent("") is None
    # span ids contain a dot and a hyphen-joined traceparent: rpartition
    # must split on the *last* hyphen
    parsed = obs_trace.SpanContext.from_traceparent("1a2b.3-1a2b.7")
    assert parsed == obs_trace.SpanContext("1a2b.3", "1a2b.7")


def test_activate_parents_spans_under_a_remote_context():
    obs_trace.configure(enabled=True)
    remote = obs_trace.SpanContext("cafe.1", "cafe.2")
    with obs_trace.activate(remote):
        with obs_trace.span("server.request") as span:
            assert span.trace_id == "cafe.1"
            assert span.parent_id == "cafe.2"


def test_bind_carries_context_into_another_thread():
    obs_trace.configure(enabled=True)
    seen = {}

    def worker():
        with obs_trace.span("thread.work") as span:
            seen["trace_id"] = span.trace_id
            seen["parent_id"] = span.parent_id

    with obs_trace.span("root") as root:
        bound = obs_trace.bind(worker)
    thread = threading.Thread(target=bound)
    thread.start()
    thread.join()
    assert seen == {"trace_id": root.trace_id, "parent_id": root.span_id}


def test_sampling_is_seeded_and_suppresses_descendants():
    obs_trace.configure(enabled=True, sample=0.5, seed=42)
    for _ in range(20):
        with obs_trace.span("root"):
            with obs_trace.span("child"):
                pass
    tracer = obs_trace.get_tracer()
    roots = [span for span in tracer.spans if span["name"] == "root"]
    children = [span for span in tracer.spans if span["name"] == "child"]
    assert 0 < len(roots) < 20, "a 0.5 sample keeps some, drops some"
    # an unsampled root suppresses its whole trace: children match roots
    assert len(children) == len(roots)
    # same seed, same decisions
    obs_trace.reset()
    obs_trace.configure(enabled=True, sample=0.5, seed=42)
    for _ in range(20):
        with obs_trace.span("root"):
            pass
    again = [span for span in obs_trace.get_tracer().spans]
    assert len(again) == len(roots)


def test_max_spans_bounds_the_buffer_and_counts_drops():
    obs_trace.configure(enabled=True, max_spans=3)
    for index in range(5):
        with obs_trace.span(f"span{index}"):
            pass
    tracer = obs_trace.get_tracer()
    assert len(tracer.spans) == 3
    assert tracer.dropped == 2
    assert tracer.stats()["finished"] == 5


def test_adopt_merges_worker_span_dicts():
    obs_trace.configure(enabled=True)
    foreign = [
        {"trace_id": "t", "span_id": "w.1", "parent_id": None,
         "name": "worker.exec", "start": 0.0, "duration": 0.1,
         "pid": 99, "tags": {}, "events": []},
    ]
    tracer = obs_trace.get_tracer()
    assert tracer.adopt(foreign) == 1
    assert tracer.stats()["adopted"] == 1
    assert tracer.trace("t")[0]["name"] == "worker.exec"


def test_span_tree_nests_by_parentage():
    obs_trace.configure(enabled=True)
    with obs_trace.span("a"):
        with obs_trace.span("b"):
            with obs_trace.span("c"):
                pass
        with obs_trace.span("d"):
            pass
    [root] = obs_trace.span_tree(obs_trace.get_tracer().spans)
    assert root["span"]["name"] == "a"
    names = sorted(child["span"]["name"] for child in root["children"])
    assert names == ["b", "d"]


def test_env_propagation_enables_children():
    obs_trace.configure(enabled=True)
    with obs_trace.span("parent"):
        environ = obs_trace.inject_env({})
    assert environ[obs_trace.TRACE_ENV] == "1"
    context = obs_trace.extract_env(environ)
    assert context is not None
    obs_trace.reset()
    obs_trace.configure_from_env(environ)
    assert obs_trace.TRACING is True


# ---------------------------------------------------------------------------
# metrics registry and exporters
# ---------------------------------------------------------------------------

def test_registry_instruments_and_snapshot():
    registry = obs_metrics.MetricsRegistry()
    requests = registry.counter("repro_test_requests_total", help="requests")
    requests.inc()
    requests.inc(2)
    registry.counter(
        "repro_test_by_outcome_total", labels={"outcome": "ok"}
    ).inc(5)
    gauge = registry.gauge("repro_test_inflight")
    gauge.set(3)
    gauge.dec()
    histogram = registry.histogram("repro_test_latency_seconds")
    histogram.observe(0.002)
    histogram.observe(0.2)
    snapshot = registry.snapshot()
    assert registry.get_value("repro_test_requests_total") == 3.0
    assert registry.get_value(
        "repro_test_by_outcome_total", labels={"outcome": "ok"}
    ) == 5.0
    assert registry.get_value("repro_test_inflight") == 2.0
    names = [family["name"] for family in snapshot["families"]]
    assert names == sorted(names), "snapshot families are sorted"
    assert "repro_test_latency_seconds" in names


def test_same_name_same_labels_is_the_same_instrument():
    registry = obs_metrics.MetricsRegistry()
    first = registry.counter("repro_x_total", labels={"a": "1", "b": "2"})
    second = registry.counter("repro_x_total", labels={"b": "2", "a": "1"})
    assert first is second
    with pytest.raises(ValueError):
        registry.gauge("repro_x_total", labels={"a": "1", "b": "2"})
    with pytest.raises(ValueError):
        first.inc(-1)


def test_histogram_buckets_are_cumulative_and_log_scale():
    registry = obs_metrics.MetricsRegistry()
    histogram = registry.histogram("repro_h_seconds")
    for value in (0.00005, 0.002, 0.002, 50.0, 1000.0):
        histogram.observe(value)
    pairs = histogram.cumulative()
    assert pairs[-1] == (float("inf"), 5)
    as_dict = dict(pairs)
    assert as_dict[obs_metrics.LATENCY_BUCKETS[0]] == 1  # 0.00005 <= 0.0001
    assert as_dict[100.0] == 4  # everything but the 1000s outlier
    counts = [count for _, count in pairs]
    assert counts == sorted(counts), "cumulative counts are monotone"


def test_prometheus_exposition_round_trips_through_the_parser():
    registry = obs_metrics.MetricsRegistry()
    registry.counter(
        "repro_q_total", labels={"outcome": "ok"}, help='queries "ok"'
    ).inc(7)
    registry.gauge("repro_g").set(1.5)
    registry.histogram("repro_h_seconds").observe(0.01)
    text = obs_export.to_prometheus(registry.snapshot())
    parsed = obs_export.parse_prometheus(text)
    assert parsed["repro_q_total"]["type"] == "counter"
    [(labels, value)] = parsed["repro_q_total"]["samples"]
    assert labels == {"outcome": "ok"} and value == 7.0
    assert parsed["repro_g"]["samples"] == [({}, 1.5)]
    histogram = parsed["repro_h_seconds"]
    assert histogram["type"] == "histogram"
    le_values = [labels["le"] for labels, _ in histogram["samples"] if "le" in labels]
    assert le_values[-1] == "+Inf"
    with pytest.raises(ValueError):
        obs_export.parse_prometheus("this is not prometheus text\n")


def test_flatten_stats_and_format_table():
    rows = obs_export.flatten_stats({"b": {"y": 2, "x": 1}, "a": 0})
    assert rows == [("a", 0), ("b.x", 1), ("b.y", 2)]
    table = obs_export.format_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("a") and lines[0].endswith("0")
    assert all(line.index(str(value)) > 0 for line, (_, value) in zip(lines, rows))


def test_chrome_trace_exports_complete_and_instant_events():
    obs_trace.configure(enabled=True)
    with obs_trace.span("parent", stage="verdict") as parent:
        parent.add_event("fault.injected", site="exec.crash")
        with obs_trace.span("child"):
            pass
    payload = obs_export.chrome_trace(obs_trace.get_tracer().spans)
    events = payload["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    instants = [event for event in events if event["ph"] == "i"]
    assert {event["name"] for event in complete} == {"parent", "child"}
    [instant] = instants
    assert instant["name"] == "parent:fault.injected"
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
    by_name = {event["name"]: event for event in complete}
    assert by_name["parent"]["args"]["tag.stage"] == "verdict"
    json.dumps(payload)  # the whole document must be JSON-serializable


def test_collectors_merge_into_a_registry_snapshot():
    service = VerificationService()
    try:
        digest = service.register(FILTER_SOURCE)
        service.verify_blocking(digest, "endochrony")
        snapshot = service.metrics.snapshot()
        names = {family["name"] for family in snapshot["families"]}
        assert "repro_service_queries_total" in names
        assert "repro_artifact_stage_total" in names
        assert "repro_trace_spans_total" in names
        queries = {
            sample["labels"]["outcome"]: sample["value"]
            for family in snapshot["families"]
            if family["name"] == "repro_service_queries_total"
            for sample in family["samples"]
        }
        assert queries["all"] == 1.0 and queries["computed"] == 1.0
        obs_export.parse_prometheus(obs_export.to_prometheus(snapshot))
    finally:
        service.close()


def test_bdd_collector_reports_kernel_counters():
    from repro.bdd.bdd import BDDManager

    manager = BDDManager(["a", "b"])
    left, right = manager.var("a"), manager.var("b")
    manager.apply("and", left, right)
    manager.apply("and", left, right)
    registry = obs_metrics.MetricsRegistry()
    registry.register_collector(obs_collect.bdd_collector(manager))
    assert registry.get_value("repro_bdd_apply_calls_total") == 2.0
    assert registry.get_value("repro_bdd_peak_nodes") >= 3.0
    ratio = registry.get_value("repro_bdd_apply_cache_hit_ratio")
    assert 0.0 <= ratio <= 1.0


def test_bdd_collector_reports_relational_product_and_rename_counters():
    from repro.bdd.bdd import BDDManager

    manager = BDDManager(["a", "b", "c"])
    relation = manager.var("a") & manager.var("b")
    manager.and_exists(manager.var("a"), relation, ["a"])
    manager.and_exists(manager.var("a"), relation, ["a"])  # computed-table hit
    manager.rename(manager.var("b"), {"b": "c"})
    registry = obs_metrics.MetricsRegistry()
    registry.register_collector(obs_collect.bdd_collector(manager))
    assert registry.get_value("repro_bdd_and_exists_calls_total") == 2.0
    assert registry.get_value("repro_bdd_and_exists_cache_hits_total") >= 1.0
    assert registry.get_value("repro_bdd_rename_calls_total") == 1.0
    stats = manager.stats()
    assert stats["and_exists_cache_lookups"] >= stats["and_exists_cache_hits"] >= 1
    obs_export.parse_prometheus(obs_export.to_prometheus(registry.snapshot()))


def test_bdd_collector_reports_non_constructive_decision_counters():
    from repro.bdd.bdd import BDDManager

    manager = BDDManager(["a", "b", "c"])
    a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
    relation = (a & b) | c
    assert manager.leq(a & b, relation)
    assert manager.leq(a & b, relation)  # decision-table hit
    assert not manager.leq(relation, a)
    assert manager.intersects(relation, ~c)
    assert manager.intersects(relation, ~c)  # decision-table hit
    registry = obs_metrics.MetricsRegistry()
    registry.register_collector(obs_collect.bdd_collector(manager))
    assert registry.get_value("repro_bdd_leq_calls_total") == 3.0
    assert registry.get_value("repro_bdd_intersects_calls_total") == 2.0
    stats = manager.stats()
    assert stats["leq_calls"] == 3 and stats["intersects_calls"] == 2
    assert stats["leq_cache_hits"] >= 1 and stats["intersects_cache_hits"] >= 1
    obs_export.parse_prometheus(obs_export.to_prometheus(registry.snapshot()))


def test_connection_counters_show_one_socket_per_client(tmp_path):
    socket_path = tmp_path / "conn.sock"
    server = ServiceServer(VerificationService(), socket_path)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever(ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10)
    requests = 12
    with ServiceClient(socket_path) as client:
        for _ in range(requests - 1):
            assert client.ping()
        snapshot = client.metrics()
        client.shutdown()
    thread.join(10)

    def value(name):
        [family] = [f for f in snapshot["families"] if f["name"] == name]
        [sample] = family["samples"]
        assert family["type"] == "counter"
        return sample["value"]

    assert value("repro_server_connections_total") == 1.0
    assert value("repro_server_requests_total") == float(requests)
    registry = obs_metrics.MetricsRegistry()
    registry.register_collector(obs_collect.client_collector(client))
    assert registry.get_value("repro_client_connections_total") == 1.0
    assert registry.get_value("repro_client_requests_total") == requests + 1.0
    obs_export.parse_prometheus(obs_export.to_prometheus(registry.snapshot()))


# ---------------------------------------------------------------------------
# profiling hooks
# ---------------------------------------------------------------------------

def test_slow_query_log_thresholds_and_bounds():
    log = obs_profile.SlowQueryLog(threshold=0.01, maxlen=2)
    assert not log.observe(0.001, "d1", "endochrony", "auto")
    assert log.observe(0.05, "d2", "endochrony", "auto", trace_id="t1")
    assert log.observe(0.07, "d3", "endochrony", "auto")
    assert log.observe(0.09, "d4", "endochrony", "auto")
    entries = log.entries()
    assert len(entries) == 2, "maxlen bounds the log"
    assert entries[0]["digest"] == "d3", "oldest entries fall off"
    stats = log.stats()
    assert stats["logged"] == 3 and stats["threshold"] == 0.01
    assert stats["observed"] == 4
    disabled = obs_profile.SlowQueryLog(threshold=0.0)
    assert not disabled.observe(999.0, "d", "p", "m")
    assert disabled.enabled is False


def test_traced_verify_attaches_stage_self_times_and_bdd_tags():
    obs_trace.configure(enabled=True)
    from repro.api.session import Design

    design = Design.from_source(FILTER_SOURCE)
    verdict = design.verify("endochrony")
    stages = verdict.cost.stages
    assert stages is not None and "verify" in stages
    assert all(value >= 0 for value in stages.values())
    payload = verdict.to_dict()
    assert payload["cost"]["stages"] == stages
    table = spans_by_name(obs_trace.get_tracer().spans)
    assert "artifact.verdict" in table
    assert table["artifact.verdict"][0]["tags"]["stage"] == "verdict"
    assert "self_seconds" in table["artifact.verdict"][0]["tags"]


def test_traced_symbolic_verify_tags_relational_products():
    obs_trace.configure(enabled=True)
    from repro.api.session import Design

    Design.from_source(FILTER_SOURCE).verify("non-blocking", "symbolic")
    table = spans_by_name(obs_trace.get_tracer().spans)
    tags = table["artifact.verdict"][0]["tags"]
    # the image fixpoint is one relational product per round
    assert tags["bdd.and_exists_calls"] >= 1


def test_untraced_verify_has_no_stages_key():
    from repro.api.session import Design

    verdict = Design.from_source(FILTER_SOURCE).verify("endochrony")
    assert verdict.cost.stages is None
    assert "stages" not in verdict.to_dict()["cost"]


# ---------------------------------------------------------------------------
# the acceptance scenario: one query, one trace, the whole stack
# ---------------------------------------------------------------------------

def test_one_client_query_yields_one_full_stack_trace(tmp_path):
    obs_trace.configure(enabled=True)
    socket_path = tmp_path / "obs.sock"
    service = VerificationService(store=ArtifactStore(tmp_path / "store"))
    server = ServiceServer(service, socket_path)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever(ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10)
    client = ServiceClient(socket_path)
    try:
        digest = client.register(FILTER_SOURCE)
        verdict = client.verify(digest=digest, prop="endochrony")
        assert verdict["holds"] is True
    finally:
        try:
            client.shutdown()
        except (ServiceError, OSError):
            pass
        client.close()
        thread.join(10)

    tracer = obs_trace.get_tracer()
    verify_requests = [
        span for span in tracer.spans
        if span["name"] == "client.request" and span["tags"].get("op") == "verify"
    ]
    assert len(verify_requests) == 1
    trace_id = verify_requests[0]["trace_id"]
    names = {span["name"] for span in tracer.trace(trace_id)}
    # transport, scheduler, artifact stages, store accesses, backend exec —
    # all under the ONE trace the client started
    assert {
        "client.request", "server.request", "service.verify",
        "service.compute", "backend.exec", "artifact.verdict",
        "artifact.analysis", "store.get", "store.put",
    } <= names
    [tree] = obs_trace.span_tree(tracer.trace(trace_id))
    assert tree["span"]["name"] == "client.request"
    # the whole trace exports to Chrome trace-event JSON without loss
    payload = obs_export.chrome_trace(tracer.trace(trace_id))
    assert len([e for e in payload["traceEvents"] if e["ph"] == "X"]) == len(
        tracer.trace(trace_id)
    )


def test_coalesced_riders_share_the_computation_but_keep_their_spans():
    obs_trace.configure(enabled=True)
    service = VerificationService(backend=InlineBackend(workers=1))
    try:
        digest = service.register(FILTER_SOURCE)

        async def fan_out():
            queries = [
                asyncio.ensure_future(service.verify(digest, "endochrony"))
                for _ in range(8)
            ]
            return await asyncio.gather(*queries)

        verdicts = asyncio.run(fan_out())
        assert all(verdict["holds"] for verdict in verdicts)
        assert service.computations == 1 and service.coalesced == 7
    finally:
        service.close()
    tracer = obs_trace.get_tracer()
    table = spans_by_name(tracer.spans)
    assert len(table["service.verify"]) == 8
    riders = [
        span for span in table["service.verify"]
        if span["tags"].get("outcome") == "coalesced"
    ]
    assert len(riders) == 7
    assert all(span["tags"]["coalesced"] is True for span in riders)
    assert len(table["service.compute"]) == 1, "riders share one computation"


def test_verify_many_parallel_workers_join_the_callers_trace():
    from repro.api.session import Design

    obs_trace.configure(enabled=True)
    design = Design.from_source(FILTER_SOURCE)
    with obs_trace.span("caller") as caller:
        verdicts = design.verify_many(
            [("non-blocking", "compiled"), ("weak-endochrony", "compiled")], parallel=2
        )
    assert all(verdict.holds for verdict in verdicts)
    workers = spans_by_name(obs_trace.get_tracer().spans)["worker.exec"]
    assert len(workers) == 2
    assert {span["trace_id"] for span in workers} == {caller.trace_id}


def test_process_pool_worker_spans_are_shipped_and_adopted():
    obs_trace.configure(enabled=True)
    service = VerificationService(backend=ProcessPoolBackend(workers=1))
    try:
        digest = service.register(FILTER_SOURCE)
        verdict = service.verify_blocking(digest, "endochrony")
        assert verdict["holds"] is True
        from repro.service.scheduler import TRACE_SHIP_KEY

        assert TRACE_SHIP_KEY not in verdict
    finally:
        service.close()
    tracer = obs_trace.get_tracer()
    assert tracer.stats()["adopted"] > 0
    table = spans_by_name(tracer.spans)
    [worker_exec] = table["worker.exec"]
    [dispatch] = table["backend.dispatch"]
    assert worker_exec["pid"] != dispatch["pid"], "worker spans crossed processes"
    assert worker_exec["trace_id"] == dispatch["trace_id"]
    assert worker_exec["parent_id"] == dispatch["span_id"]
    # worker-side artifact stages joined the same trace
    assert any(
        span["name"] == "artifact.verdict" and span["pid"] == worker_exec["pid"]
        for span in tracer.trace(worker_exec["trace_id"])
    )
