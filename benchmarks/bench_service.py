"""F-SVC — the serving layer: pay for a design once, serve it forever.

Three cache tiers and one concurrency property, on the `pipeline_8`
acceptance scenario:

1. *Cold* — a fresh service over an empty artifact store: the query pays
   analysis + compilation + exploration (and persists everything).
2. *Warm relation* — a brand-new service process over the same store asked
   a **new** query: the persisted verdicts miss, but the compiled BDD step
   relation reloads in linear time, skipping compilation.
3. *Warm verdict* — a brand-new service asked a **repeat** query: one small
   JSON read, no pipeline stage at all.  **The acceptance gate: ≥ 5× faster
   than the cold compile.**
4. *Coalescing* — 64 concurrent duplicate queries on a storeless service
   trigger exactly one underlying computation (the `computations`
   instrumentation counter), so concurrent duplicate load scales by the
   price of one.
5. *Keep-alive* — 1,000 cached queries over the socket through one kept
   client against the same 1,000 with a new client per request: the kept
   connection must be ≥ 1.5× cheaper per request and cost the server
   exactly one connection.

Run with:  pytest benchmarks/bench_service.py
(the timing assertions also run in the plain suite; CI uploads the JSON)
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import threading
import time
from pathlib import Path

from _record import recorder, timed

from repro.gen.corpus import Corpus, seed_store
from repro.gen.topologies import pipeline_network
from repro.service import ArtifactStore, ServiceClient, ServiceServer, VerificationService

RECORD = recorder("service")

#: the committed generator corpus: the mixed cold/warm query workload
CORPUS_PATH = Path(__file__).resolve().parent.parent / "corpus" / "corpus.json"

#: the acceptance scenario and its required warm-over-cold advantage
ACCEPTANCE_SIZE = 8
ACCEPTANCE_SPEEDUP = 5.0
#: concurrent duplicate queries for the coalescing scenario
FAN_OUT = 64
#: cached socket queries per client mode, and the kept client's required
#: per-request advantage over a new client per request
KEEP_ALIVE_QUERIES = 1000
KEEP_ALIVE_SPEEDUP = 1.5
KEEP_ALIVE_SOURCE = """
process filter (y) returns (x) {
  local z;
  x := true when (y /= z);
  z := y pre true;
}
"""


def _fresh_service(store_root):
    """A service with nothing shared in memory with any previous one."""
    _components, composition = pipeline_network(ACCEPTANCE_SIZE)
    service = VerificationService(store=ArtifactStore(store_root))
    digest = service.register([composition], name=composition.name)
    return service, digest


def test_warm_cache_query_is_5x_faster_than_cold_compile():
    store_root = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        cold_service, digest = _fresh_service(store_root)
        cold_verdict, cold_seconds = timed(
            cold_service.verify_blocking, digest, "non-blocking", method="compiled"
        )
        assert cold_verdict["holds"] and cold_verdict["method"] == "compiled"
        assert cold_service.computations == 1
        cold_service.close()
        RECORD.record(
            f"pipeline_{ACCEPTANCE_SIZE} cold (compile + explore + persist)",
            seconds=cold_seconds,
        )

        # tier 2: new service, new query — the compiled relation reloads
        relation_service, digest = _fresh_service(store_root)
        relation_verdict, relation_seconds = timed(
            relation_service.verify_blocking,
            digest,
            "non-blocking",
            method="compiled",
            max_states=256,
        )
        assert relation_verdict["holds"]
        design = relation_service.registry.get(digest)
        abstraction = design.context.compiled(design.composition)
        compiled_counters = design.context.graph.counters["compiled"]
        assert abstraction is not None, "the composition must compile"
        assert compiled_counters["store_hits"] >= 1 and compiled_counters["computed"] == 0, (
            "the step relation must come from the store, not a recompile"
        )
        relation_service.close()
        RECORD.record(
            f"pipeline_{ACCEPTANCE_SIZE} warm relation (store hit, new query)",
            seconds=relation_seconds,
            cold_seconds=round(cold_seconds, 6),
            speedup=round(cold_seconds / max(relation_seconds, 1e-9), 2),
        )

        # tier 3: new service, repeat query — the verdict itself is the artifact
        warm_service, digest = _fresh_service(store_root)
        warm_verdict, warm_seconds = timed(
            warm_service.verify_blocking, digest, "non-blocking", method="compiled"
        )
        assert warm_verdict["holds"] == cold_verdict["holds"]
        assert warm_service.computations == 0, "a store hit must not recompute"
        assert warm_service.verdict_store_hits == 1
        warm_service.close()
        RECORD.record(
            f"pipeline_{ACCEPTANCE_SIZE} warm verdict (store hit, repeat query)",
            seconds=warm_seconds,
            cold_seconds=round(cold_seconds, 6),
            speedup=round(cold_seconds / max(warm_seconds, 1e-9), 2),
        )
        assert warm_seconds * ACCEPTANCE_SPEEDUP < cold_seconds, (
            f"warm {warm_seconds:.4f}s vs cold {cold_seconds:.4f}s "
            f"(need ≥{ACCEPTANCE_SPEEDUP:.0f}×)"
        )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


def test_64_concurrent_duplicates_cost_one_computation():
    service = VerificationService()  # storeless: the coalescer does all the work
    _components, composition = pipeline_network(ACCEPTANCE_SIZE)
    digest = service.register([composition], name=composition.name)

    # baseline: what one computation of this query costs
    baseline_service = VerificationService()
    _c, rebuilt = pipeline_network(ACCEPTANCE_SIZE)
    baseline_digest = baseline_service.register([rebuilt], name=rebuilt.name)
    _verdict, single_seconds = timed(
        baseline_service.verify_blocking,
        baseline_digest,
        "weak-endochrony",
        method="compiled",
    )
    baseline_service.close()

    async def fan_out():
        return await asyncio.gather(
            *[
                service.verify(digest, "weak-endochrony", method="compiled")
                for _ in range(FAN_OUT)
            ]
        )

    start = time.perf_counter()
    results = asyncio.run(fan_out())
    elapsed = time.perf_counter() - start

    assert len(results) == FAN_OUT
    assert all(result == results[0] for result in results)
    assert service.computations == 1, (
        f"{FAN_OUT} concurrent duplicates ran {service.computations} computations"
    )
    assert service.coalesced == FAN_OUT - 1
    service.close()
    RECORD.record(
        f"{FAN_OUT} concurrent duplicate queries (coalesced)",
        seconds=elapsed,
        single_query_seconds=round(single_seconds, 6),
        computations=1,
        coalesced=FAN_OUT - 1,
        naive_seconds=round(single_seconds * FAN_OUT, 6),
    )
    # the fan-out must not cost anywhere near 64 computations; even one
    # extra computation would double the time, so 8× headroom is generous
    assert elapsed < single_seconds * FAN_OUT / 8, (
        f"{FAN_OUT} coalesced queries took {elapsed:.4f}s vs "
        f"{single_seconds:.4f}s for one computation"
    )


def test_corpus_driven_mixed_cold_warm_queries():
    """A realistic query mix from the generator corpus, not a hand-rolled list.

    The committed corpus (``corpus/corpus.json``) supplies both the designs
    and the warm tier: the verdicts of every *even* entry are seeded into
    the artifact store beforehand (``repro.gen.corpus.seed_store``), the odd
    entries stay cold.  One service then answers one recorded query per
    entry — warm entries must be pure store reads, and the seeded half must
    be decisively cheaper than the computed half.
    """
    corpus = Corpus.load(CORPUS_PATH)
    entries = corpus.entries[:24]
    warm_entries = entries[0::2]
    cold_entries = entries[1::2]
    prop, method = "non-blocking", "explicit"

    store_root = tempfile.mkdtemp(prefix="repro-bench-corpus-")
    try:
        seeded = seed_store(
            Corpus(entries=list(warm_entries), max_states=corpus.max_states),
            ArtifactStore(store_root),
        )
        service = VerificationService(store=ArtifactStore(store_root))
        digests = {}
        for entry in entries:
            digest = service.register(
                list(entry.regenerate().components), name=entry.name
            )
            assert digest == entry.digest, (
                "corpus digests must address the service's designs"
            )
            digests[entry.name] = digest

        def run(batch):
            start = time.perf_counter()
            for entry in batch:
                verdict = service.verify_blocking(
                    digests[entry.name], prop, method=method, **corpus.options()
                )
                assert verdict["holds"] == entry.holds(prop, method)
            return time.perf_counter() - start

        computed_before = service.computations
        warm_seconds = run(warm_entries)
        assert service.computations == computed_before, (
            "warm corpus entries must be answered from the seeded store"
        )
        cold_seconds = run(cold_entries)
        # distinct seeds can sample identical designs; repeat digests are
        # LRU hits, so only the *distinct* cold digests cost a computation
        warm_digests = {entry.digest for entry in warm_entries}
        distinct_cold = {
            entry.digest for entry in cold_entries
        } - warm_digests
        assert service.computations == computed_before + len(distinct_cold)
        service.close()

        RECORD.record(
            f"corpus mixed workload ({len(warm_entries)} warm / "
            f"{len(cold_entries)} cold, {prop} via {method})",
            seconds=warm_seconds + cold_seconds,
            warm_seconds=round(warm_seconds, 6),
            cold_seconds=round(cold_seconds, 6),
            verdicts_seeded=seeded,
            speedup=round(
                (cold_seconds / len(cold_entries))
                / max(warm_seconds / len(warm_entries), 1e-9),
                2,
            ),
        )
        assert warm_seconds / len(warm_entries) < cold_seconds / len(cold_entries), (
            "a seeded verdict must be cheaper than a computed one"
        )
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


def test_cached_throughput():
    """Steady-state: repeat queries served from the LRU cache, per second."""
    service = VerificationService()
    _components, composition = pipeline_network(ACCEPTANCE_SIZE)
    digest = service.register([composition], name=composition.name)
    service.verify_blocking(digest, "non-blocking", method="compiled")

    queries = 500

    async def pump():
        for _ in range(queries):
            await service.verify(digest, "non-blocking", method="compiled")

    start = time.perf_counter()
    asyncio.run(pump())
    elapsed = time.perf_counter() - start
    assert service.computations == 1
    service.close()
    RECORD.record(
        "steady-state cached queries",
        seconds=elapsed,
        queries=queries,
        queries_per_second=round(queries / max(elapsed, 1e-9)),
    )
    assert queries / max(elapsed, 1e-9) > 1000, "cached queries should be cheap"


def test_kept_connection_beats_a_connection_per_request():
    socket_path = Path(tempfile.mkdtemp(prefix="repro-bench-keepalive-")) / "s.sock"
    service = VerificationService()
    server = ServiceServer(service, socket_path)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever(ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10)
    try:
        with ServiceClient(socket_path) as setup:
            digest = setup.register(KEEP_ALIVE_SOURCE)
            expected = setup.verify(digest=digest, prop="non-blocking", method="compiled")
        query = {"digest": digest, "prop": "non-blocking", "method": "compiled"}

        before = server.connections
        start = time.perf_counter()
        with ServiceClient(socket_path) as kept:
            for _ in range(KEEP_ALIVE_QUERIES):
                assert kept.verify(**query) == expected
        kept_seconds = time.perf_counter() - start
        kept_connections = server.connections - before

        before = server.connections
        start = time.perf_counter()
        for _ in range(KEEP_ALIVE_QUERIES):
            with ServiceClient(socket_path) as fresh:
                assert fresh.verify(**query) == expected
        fresh_seconds = time.perf_counter() - start
        fresh_connections = server.connections - before
    finally:
        with ServiceClient(socket_path) as admin:
            admin.shutdown()
        thread.join(10)
        service.close()
        shutil.rmtree(socket_path.parent, ignore_errors=True)
    assert service.computations == 1
    speedup = fresh_seconds / kept_seconds
    RECORD.record(
        f"{KEEP_ALIVE_QUERIES} cached socket queries, one kept client",
        seconds=kept_seconds,
        queries=KEEP_ALIVE_QUERIES,
        per_request_us=round(kept_seconds / KEEP_ALIVE_QUERIES * 1e6, 1),
        server_connections=kept_connections,
    )
    RECORD.record(
        f"{KEEP_ALIVE_QUERIES} cached socket queries, a new client per request",
        seconds=fresh_seconds,
        queries=KEEP_ALIVE_QUERIES,
        per_request_us=round(fresh_seconds / KEEP_ALIVE_QUERIES * 1e6, 1),
        server_connections=fresh_connections,
        kept_speedup=round(speedup, 2),
    )
    assert kept_connections == 1
    assert fresh_connections == KEEP_ALIVE_QUERIES
    assert speedup >= KEEP_ALIVE_SPEEDUP, (
        f"kept connection {kept_seconds:.3f}s vs {fresh_seconds:.3f}s with a "
        f"connection per request: {speedup:.2f}x < {KEEP_ALIVE_SPEEDUP}x"
    )
