"""The serving layer: registry, artifact store, scheduler, socket protocol.

The acceptance-critical behaviors pinned here:

* 64 concurrent identical queries trigger **exactly one** underlying
  computation (the scheduler's ``computations`` instrumentation counter);
* a warm artifact-store start answers without recompiling: persisted
  verdicts short-circuit the pipeline entirely, persisted step relations
  short-circuit compilation for fresh queries;
* content addressing deduplicates designs across construction paths
  (source text, builder, printed-and-reparsed source);
* the Unix-socket JSON protocol round-trips register / verify / describe /
  stats / shutdown, errors included, across threads.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.api.session import Design
from repro.gen.corpus import Corpus
from repro.lang.printer import format_process
from repro.gen.topologies import chain_of_buffers, pipeline_network
from repro.service import (
    ArtifactStore,
    DesignRegistry,
    FaultPlan,
    InlineBackend,
    ProcessPoolBackend,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ServiceUnavailable,
    TransportError,
    VerificationService,
)

FILTER_SOURCE = """
process filter (x) returns (y) {
  y := x when x;
}
"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_deduplicates_across_construction_paths():
    registry = DesignRegistry()
    first = registry.register(FILTER_SOURCE)
    # the same design via print ∘ parse: byte-different source, same content
    printed = format_process(Design.from_source(FILTER_SOURCE).context.registry["filter"])
    second = registry.register(printed)
    assert first == second
    assert len(registry) == 1
    assert registry.stats()["deduplicated"] == 1
    assert registry.get(first).name == "filter"
    with pytest.raises(KeyError):
        registry.get("0" * 64)


def test_registry_bounds_live_sessions_with_lru_eviction():
    registry = DesignRegistry(max_designs=2)
    digests = []
    for size in (2, 3, 4):
        _, composition = pipeline_network(size)
        digests.append(registry.register([composition], name=f"pipeline_{size}"))
    assert len(registry) == 2
    assert registry.stats()["evicted"] == 1
    with pytest.raises(KeyError):
        registry.get(digests[0])  # the oldest was evicted
    assert registry.get(digests[2]).name == "pipeline_4"
    # re-registering the evicted design rebuilds its session
    _, rebuilt = pipeline_network(2)
    assert registry.register([rebuilt], name="pipeline_2") == digests[0]
    assert registry.get(digests[0]).name == "pipeline_2"


def test_design_digest_is_stable_across_sessions():
    _, one = pipeline_network(4)
    _, two = pipeline_network(4)
    assert Design.from_process(one).digest() == Design.from_process(two).digest()
    _, other = pipeline_network(5)
    assert Design.from_process(one).digest() != Design.from_process(other).digest()


# ---------------------------------------------------------------------------
# the scheduler: coalescing, LRU, counters
# ---------------------------------------------------------------------------

def test_64_concurrent_identical_queries_compute_once():
    service = VerificationService()  # no store: nothing else can absorb the work
    _, composition = pipeline_network(6)
    digest = service.register([composition], name="pipeline_6")

    async def fan_out():
        return await asyncio.gather(
            *[
                service.verify(digest, "non-blocking", method="compiled")
                for _ in range(64)
            ]
        )

    results = asyncio.run(fan_out())
    assert len(results) == 64
    assert all(result == results[0] for result in results)
    assert results[0]["holds"] is True
    assert service.computations == 1, "coalescing must share one computation"
    assert service.coalesced == 63
    service.close()


def test_repeat_queries_hit_the_lru_cache():
    service = VerificationService()
    _, composition = pipeline_network(4)
    digest = service.register([composition])
    first = service.verify_blocking(digest, "non-blocking", method="compiled")
    second = service.verify_blocking(digest, "non-blocking", method="compiled")
    assert first == second
    assert service.computations == 1
    assert service.cache_hits == 1
    service.close()


def test_blocking_calls_from_four_threads_share_one_event_loop():
    service = VerificationService()
    _, composition = pipeline_network(4)
    digest = service.register([composition])
    start = threading.Barrier(4)
    answers, errors = [], []

    def caller():
        try:
            start.wait()
            for prop in ("non-blocking", "weak-endochrony"):
                answers.append(service.verify_blocking(digest, prop, method="compiled"))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=caller) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the callers' first-use set-up
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(answers) == 8
    # one loop for every caller: identical queries coalesce or hit the cache
    assert service.computations == 2
    assert service.coalesced + service.cache_hits == 6
    loop = service._loop
    service.close()
    assert loop.is_closed()


@pytest.mark.parametrize("repetition", range(20))
def test_callers_on_two_event_loops_both_get_the_verdict(repetition):
    """A query in flight on one event loop cannot be awaited from another:
    the second loop's caller must still get its answer, never an error."""
    service = VerificationService()
    _, composition = pipeline_network(6)
    digest = service.register([composition])
    start = threading.Barrier(2)
    answers, errors = [], []

    def caller():
        try:
            start.wait()
            answers.append(
                asyncio.run(service.verify(digest, "weak-endochrony", method="compiled"))
            )
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=caller) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(answers) == 2 and answers[0] == answers[1]
    assert answers[0]["holds"] is True
    assert service.computations <= 2
    service.close()


def test_lru_cache_evicts_least_recently_used():
    service = VerificationService(cache_size=2)
    _, composition = pipeline_network(4)
    digest = service.register([composition])
    service.verify_blocking(digest, "non-blocking", method="compiled")
    service.verify_blocking(digest, "weak-endochrony", method="compiled")
    service.verify_blocking(digest, "non-blocking", method="explicit")  # evicts #1
    assert service.computations == 3
    service.verify_blocking(digest, "non-blocking", method="compiled")
    assert service.computations == 4, "evicted entry must be recomputed"
    service.close()


def test_callers_cannot_corrupt_the_cached_verdict():
    service = VerificationService()
    digest = service.register(FILTER_SOURCE)
    first = service.verify_blocking(digest, "non-blocking", method="compiled")
    first["holds"] = False
    first["diagnostics"].clear()
    second = service.verify_blocking(digest, "non-blocking", method="compiled")
    assert second["holds"] is True
    assert second["diagnostics"], "cache must hand out copies, not the live entry"
    assert service.computations == 1
    service.close()


def test_repeat_by_source_submissions_skip_reparsing():
    service = VerificationService()
    first = service.register(FILTER_SOURCE)
    design = service.registry.get(first)
    assert service.register(FILTER_SOURCE) == first
    assert service.registry.get(first) is design  # no new Design was built
    assert service.registry.stats()["deduplicated"] == 1
    service.close()


def test_unknown_digest_and_bad_property_raise():
    service = VerificationService()
    with pytest.raises(KeyError):
        service.verify_blocking("f" * 64, "non-blocking")
    digest = service.register(FILTER_SOURCE)
    with pytest.raises(Exception, match="unknown property"):
        service.verify_blocking(digest, "no-such-property")
    service.close()


def test_failed_queries_are_not_cached():
    service = VerificationService()
    digest = service.register(FILTER_SOURCE)
    with pytest.raises(Exception):
        # isochrony needs exactly two components: the backend raises
        service.verify_blocking(digest, "isochrony", method="explicit")
    assert service.computations == 1
    verdict = service.verify_blocking(digest, "non-blocking")
    assert verdict["holds"]
    service.close()


# ---------------------------------------------------------------------------
# the artifact store: warm starts
# ---------------------------------------------------------------------------

def test_warm_service_answers_from_persisted_verdicts(tmp_path):
    _, composition = pipeline_network(6)
    cold = VerificationService(store=ArtifactStore(tmp_path / "store"))
    digest = cold.register([composition], name="pipeline_6")
    cold_verdict = cold.verify_blocking(digest, "non-blocking", method="compiled")
    assert cold.computations == 1
    cold.close()

    _, rebuilt = pipeline_network(6)  # fresh objects: nothing shared in memory
    warm = VerificationService(store=ArtifactStore(tmp_path / "store"))
    warm_digest = warm.register([rebuilt], name="pipeline_6")
    assert warm_digest == digest
    warm_verdict = warm.verify_blocking(warm_digest, "non-blocking", method="compiled")
    assert warm.computations == 0, "a persisted verdict needs no computation"
    assert warm.verdict_store_hits == 1
    assert warm_verdict["holds"] == cold_verdict["holds"]
    assert warm_verdict["method"] == cold_verdict["method"]
    warm.close()


def test_warm_service_reloads_compiled_relations_for_new_queries(tmp_path):
    _, composition = pipeline_network(6)
    cold = VerificationService(store=ArtifactStore(tmp_path / "store"))
    digest = cold.register([composition], name="pipeline_6")
    cold.verify_blocking(digest, "non-blocking", method="compiled")
    cold.close()

    _, rebuilt = pipeline_network(6)
    warm = VerificationService(store=ArtifactStore(tmp_path / "store"))
    warm_digest = warm.register([rebuilt], name="pipeline_6")
    # a *different* query: the verdict misses, but the step relation loads
    verdict = warm.verify_blocking(
        warm_digest, "weak-endochrony", method="compiled"
    )
    assert verdict["method"] == "compiled"
    assert warm.computations == 1
    design = warm.registry.get(warm_digest)
    abstraction = design.context.compiled(design.composition)
    assert abstraction is not None
    # the relation came from the store tier — it was loaded, not compiled
    compiled_counters = design.context.graph.counters["compiled"]
    assert compiled_counters["store_hits"] == 1
    assert compiled_counters["computed"] == 0
    warm.close()


def test_store_survives_torn_objects(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put("ab" * 32, "analysis", {"ok": True})
    path = store.path("ab" * 32, "analysis")
    path.write_text("{ torn", encoding="utf-8")
    assert store.get("ab" * 32, "analysis") is None
    assert store.stats()["invalid"] == 1


def test_describe_persists_analysis_summaries(tmp_path):
    components, _ = chain_of_buffers(2)
    service = VerificationService(store=ArtifactStore(tmp_path / "store"))
    digest = service.register(components, name="chain")
    summary = service.describe_blocking(digest)
    assert summary["design"] == "chain"
    assert len(summary["components"]) == 2
    assert summary["composition"]["process"] == "chain"
    service.close()

    again = VerificationService(store=ArtifactStore(tmp_path / "store"))
    rebuilt, _ = chain_of_buffers(2)
    warm_digest = again.register(rebuilt, name="chain")
    assert again.describe_blocking(warm_digest) == summary  # served from disk
    again.close()


class _RecordingStore(ArtifactStore):
    """An artifact store that remembers the key of every write and read."""

    def __init__(self, root):
        super().__init__(root)
        self.written = []
        self.read = []

    def put(self, digest, kind, payload):
        self.written.append((digest, kind))
        return super().put(digest, kind, payload)

    def _read(self, digest, kind):
        self.read.append((digest, kind))
        return super()._read(digest, kind)


CORPUS_PATH = Path(__file__).resolve().parent.parent / "corpus" / "corpus.json"
ROUND = [(prop, method) for prop in ("non-blocking", "weak-endochrony")
         for method in ("static", "compiled")]


def test_a_cold_round_writes_every_verdict_once(tmp_path):
    designs = [entry.regenerate().design() for entry in Corpus.load(CORPUS_PATH)]
    store = _RecordingStore(tmp_path / "store")
    cold = VerificationService(store=store)
    answers = {}
    for design in designs:
        digest = cold.register(design)
        for prop, method in ROUND:
            answers[digest, prop, method] = cold.verify_blocking(digest, prop, method=method)
    cold.close()
    counts = Counter(store.written)
    assert counts and max(counts.values()) == 1, counts.most_common(3)
    # the service's own store check is the only read of a computed verdict:
    # the session that computes it does not read the same object again
    verdict_reads = Counter(key for key in store.read if key[1].startswith("verdict"))
    assert len(verdict_reads) == cold.computations
    assert max(verdict_reads.values()) == 1, verdict_reads.most_common(3)
    assert all(answer["digest"] == key[0] for key, answer in answers.items())

    warm = VerificationService(store=ArtifactStore(tmp_path / "store"))
    for entry in Corpus.load(CORPUS_PATH):  # fresh sessions: nothing in memory
        warm.register(entry.regenerate().design())
    for (digest, prop, method), answer in answers.items():
        stored = warm.verify_blocking(digest, prop, method=method)
        cached = warm.verify_blocking(digest, prop, method=method)
        assert stored["digest"] == cached["digest"] == digest
        assert stored["holds"] == answer["holds"]
    assert warm.computations == 0
    assert warm.verdict_store_hits == len(answers)
    warm.close()


def test_a_verdict_the_session_already_held_is_persisted_once(tmp_path):
    # verified before the store was attached: the session answers from its
    # memory tier and writes nothing, so the service writes the verdict
    design = Design.from_source(FILTER_SOURCE)
    design.verify("non-blocking", method="compiled")
    store = _RecordingStore(tmp_path / "store")
    service = VerificationService(store=store)
    digest = service.register(design)
    assert service.verify_blocking(digest, "non-blocking", method="compiled")["digest"] == digest
    service.close()
    verdicts = [key for key in store.written if key[1].startswith("verdict")]
    assert len(verdicts) == 1

    warm = VerificationService(store=ArtifactStore(tmp_path / "store"))
    warm.register(FILTER_SOURCE)
    assert warm.verify_blocking(digest, "non-blocking", method="compiled")["digest"] == digest
    assert warm.computations == 0
    warm.close()


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="process pool needs more than one core"
)
def test_process_pool_backend_agrees_with_inline(tmp_path):
    _, composition = pipeline_network(4)
    inline = VerificationService()
    inline_verdict = inline.verify_blocking(
        inline.register([composition]), "non-blocking", method="compiled"
    )
    inline.close()

    _, rebuilt = pipeline_network(4)
    pooled = VerificationService(
        store=ArtifactStore(tmp_path / "store"),
        backend=ProcessPoolBackend(workers=2, store_root=str(tmp_path / "store")),
    )
    digest = pooled.register([rebuilt])
    pooled_verdict = pooled.verify_blocking(digest, "non-blocking", method="compiled")
    assert pooled_verdict["holds"] == inline_verdict["holds"]
    assert pooled_verdict["method"] == inline_verdict["method"]
    # the worker populated the shared store with the compiled relation
    assert pooled.store.stats()["objects"] >= 1
    pooled.close()


def test_inline_backend_bounds_its_pool():
    backend = InlineBackend(workers=2)
    assert backend.describe() == {"backend": "inline", "workers": 2}
    backend.shutdown()


# ---------------------------------------------------------------------------
# the socket protocol
# ---------------------------------------------------------------------------

def _start_server(service, socket_path) -> threading.Thread:
    """Serve ``service`` on ``socket_path`` from a thread; returns the thread."""
    server = ServiceServer(service, socket_path)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever(ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10), "server did not come up"
    return thread


@pytest.fixture()
def running_server(tmp_path):
    socket_path = tmp_path / "service.sock"
    service = VerificationService(store=ArtifactStore(tmp_path / "store"))
    thread = _start_server(service, socket_path)
    client = ServiceClient(socket_path)
    yield client, service
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass
    client.close()
    thread.join(10)
    assert not thread.is_alive()


def test_socket_protocol_round_trip(running_server):
    client, service = running_server
    assert client.ping()
    digest = client.register(FILTER_SOURCE)
    assert digest == service.registry.digest_of(FILTER_SOURCE)
    verdict = client.verify(digest=digest, prop="non-blocking", method="compiled")
    assert verdict["holds"] is True
    assert verdict["digest"] == digest
    # by-source verification coalesces onto the same design
    verdict_by_source = client.verify(source=FILTER_SOURCE, prop="non-blocking", method="compiled")
    assert verdict_by_source["holds"] is True
    description = client.describe(digest)
    assert description["design"] == "filter"
    stats = client.stats()
    assert stats["registry"]["designs"] == 1
    assert stats["server"]["requests"] >= 5
    assert json.dumps(stats)  # the whole stats payload is JSON-safe


def test_socket_protocol_reports_errors_without_dying(running_server):
    client, _service = running_server
    with pytest.raises(ServiceError, match="unknown operation"):
        client.request({"op": "frobnicate"})
    with pytest.raises(ServiceError, match="unknown property"):
        client.verify(source=FILTER_SOURCE, prop="no-such-property")
    assert client.ping()  # still alive


def test_socket_accepts_large_sources_and_rejects_oversized_lines(running_server):
    client, _service = running_server
    # well past asyncio's 64 KiB default line limit, below the server's own
    padded = FILTER_SOURCE + " " * 200_000
    digest = client.register(padded)
    assert len(digest) == 64
    # beyond the server's limit: an explicit refusal (the server may close
    # the connection mid-send, surfacing as OSError on some platforms),
    # never a hung or silently-dropped request — and the server survives
    from repro.service.server import ServiceServer

    with pytest.raises((ServiceError, OSError)):
        client.request({"op": "ping", "padding": "x" * (ServiceServer.LINE_LIMIT + 1024)})
    assert client.ping()


def test_client_retries_then_raises_service_unavailable(tmp_path):
    client = ServiceClient(tmp_path / "absent.sock", retries=2, backoff=0.001)
    with pytest.raises(ServiceUnavailable, match="3 attempt"):
        client.ping()
    assert client.retried == 2
    # the typed error names the operation and the socket path
    with pytest.raises(ServiceUnavailable, match="'ping'.*absent.sock"):
        ServiceClient(tmp_path / "absent.sock", retries=0).ping()


def test_client_wraps_garbled_responses_in_typed_errors(tmp_path):
    socket_path = tmp_path / "garbler.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(socket_path))
    listener.listen(1)

    def garble():
        connection, _ = listener.accept()
        connection.recv(65536)
        connection.sendall(b"} not json {\n")
        connection.close()

    thread = threading.Thread(target=garble, daemon=True)
    thread.start()
    try:
        with pytest.raises(TransportError, match="'ping'.*garbler.sock"):
            ServiceClient(socket_path, retries=0).ping()
    finally:
        thread.join(5)
        listener.close()


# ---------------------------------------------------------------------------
# the kept-alive transport
# ---------------------------------------------------------------------------

def test_one_client_makes_one_server_connection(running_server):
    client, _service = running_server
    digest = client.register(FILTER_SOURCE)
    for prop in ("non-blocking", "weak-endochrony") * 10:
        assert client.verify(digest=digest, prop=prop, method="compiled")["holds"]
    stats = client.stats()
    assert stats["server"]["connections"] == 1
    assert stats["server"]["requests"] == 22
    assert stats["client"] == {"requests": 22, "retried": 0, "connections": 1}


def test_kept_client_reconnects_after_a_server_restart_without_retries(tmp_path):
    socket_path = tmp_path / "restart.sock"
    thread = _start_server(
        VerificationService(store=ArtifactStore(tmp_path / "store")), socket_path
    )
    with ServiceClient(socket_path, retries=0) as client:
        before = client.verify(source=FILTER_SOURCE, prop="non-blocking", method="compiled")
        with ServiceClient(socket_path) as admin:
            admin.shutdown()
        thread.join(10)
        assert not thread.is_alive()
        # the kept socket is dead; one silent reconnect reaches the new server
        thread = _start_server(
            VerificationService(store=ArtifactStore(tmp_path / "store")), socket_path
        )
        after = client.verify(source=FILTER_SOURCE, prop="non-blocking", method="compiled")
        assert after["holds"] is before["holds"] is True
        assert after["digest"] == before["digest"]
        assert (client.connections, client.retried) == (2, 0)
        client.shutdown()
    thread.join(10)
    assert not thread.is_alive()


def test_a_late_answer_is_never_read_as_the_next_response(tmp_path):
    socket_path = tmp_path / "late.sock"
    slow = FaultPlan(seed=0, rates={"exec.latency": 1.0}, latency=0.25)
    service = VerificationService(backend=InlineBackend(fault_plan=slow))
    digest = service.register(FILTER_SOURCE)
    thread = _start_server(service, socket_path)
    with ServiceClient(socket_path, timeout=0.05, retries=0) as client:
        with pytest.raises(ServiceUnavailable, match="TimeoutError"):
            client.verify(digest=digest, prop="non-blocking", method="compiled")
        client.timeout = 10.0
        # the non-blocking answer arrives while this query is in flight
        verdict = client.verify(digest=digest, prop="weak-endochrony", method="compiled")
        assert verdict["prop"] == "weak-endochrony"
        assert client.connections == 2
        client.shutdown()
    thread.join(10)
    assert not thread.is_alive()


def test_shutdown_closes_idle_kept_alive_connections_at_once(tmp_path):
    socket_path = tmp_path / "idle.sock"
    thread = _start_server(VerificationService(), socket_path)
    idle = [ServiceClient(socket_path) for _ in range(3)]
    for client in idle:
        assert client.ping()
    started = time.perf_counter()
    with ServiceClient(socket_path) as admin:
        admin.shutdown()
    thread.join(10)
    assert not thread.is_alive()
    assert time.perf_counter() - started < 0.5
    for client in idle:
        client.close()


def test_mutating_an_in_process_verdict_leaves_the_cache_intact():
    service = VerificationService()
    digest = service.register(FILTER_SOURCE)

    async def riders():
        return await asyncio.gather(
            *(service.verify(digest, "non-blocking", method="compiled") for _ in range(2))
        )

    first, rider = asyncio.run(riders())
    assert first == rider and first is not rider
    pristine = json.loads(json.dumps(first))
    for verdict in (first, rider):
        verdict["holds"] = "mutated"
        verdict["cost"].clear()
    again = service.verify_blocking(digest, "non-blocking", method="compiled")
    assert again == pristine
    assert service.computations == 1 and service.cache_hits == 1
    service.close()


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

def test_cli_exits_1_when_the_server_is_absent(tmp_path, capsys):
    from repro.service.__main__ import main

    missing = tmp_path / "nobody-home.sock"
    assert main(["stats", "--socket", str(missing), "--retries", "0"]) == 1
    captured = capsys.readouterr()
    assert "is the server running?" in captured.err
    assert str(missing) in captured.err
    assert captured.out == ""  # the hint goes to stderr, not the JSON stream


def test_cli_digest_is_offline(tmp_path, capsys):
    from repro.service.__main__ import main

    source = tmp_path / "filter.sig"
    source.write_text(FILTER_SOURCE, encoding="utf-8")
    assert main(["digest", "--source", str(source)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["design"] == "filter"
    assert len(payload["digest"]) == 64
