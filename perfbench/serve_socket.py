"""Workload ``serve_socket``: transport, scheduler, registry and store.

``python -m repro.service serve --store DIR`` runs as a subprocess; this
process is the load generator, holding 2 closed-loop connections through
``ServiceClient`` (each sends its next request once the previous answer
arrived).  Requests are the corpus x {non-blocking, weak-endochrony} x
{static, compiled}.  One pass is one round of three phases:

* **cold** — a fresh server over an empty store, requests carry source text;
* **warm** — the server restarted over the same store, the same requests,
  answered from persisted verdicts (no engine runs);
* **cached** — a seeded draw of repeat queries by digest.

Oracle: every socket verdict equals the in-process ``Design.verify``
verdict, which equals the corpus's recorded one.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import OUT, SRC, PassRecord, Tracer, median, ms, peak_rss_mb, per_op, percentile, us
from designs import corpus_designs, count_design, count_verdict, kernel_metrics, load_corpus, product_engine

PROPS = ("non-blocking", "weak-endochrony")
METHODS = ("static", "compiled")
CLIENTS = 2
CACHED_DRAWS = 1200
PINGS = 200
START_TIMEOUT = 60.0


class ServerProcess:
    """One ``repro.service serve`` subprocess; stopped and waited on close."""

    def __init__(self, socket_path: str, store: Path, log: Path):
        from repro.service.client import ServiceClient
        from repro.service.errors import ServiceUnavailable

        environment = dict(os.environ, PYTHONPATH=str(SRC))
        command = [sys.executable, "-m", "repro.service", "serve", "--socket", socket_path, "--store", str(store)]
        self.socket_path = socket_path
        self.log = open(log, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=self.log, stderr=subprocess.STDOUT, env=environment)
        probe = ServiceClient(socket_path, retries=0, timeout=5.0)
        while True:
            try:
                probe.ping()
                break
            except ServiceUnavailable:
                if self.process.poll() is not None or time.perf_counter() - started > START_TIMEOUT:
                    self.close()
                    raise RuntimeError(f"the service did not start; see {log}")
                time.sleep(0.002)
        #: CPU seconds the server spent from its start to the first answered ping
        self.start_seconds = self.cpu_seconds()

    def cpu_seconds(self) -> float:
        """CPU time of the server's threads so far, from the scheduler's
        nanosecond accounting (Linux ``/proc/<pid>/task/<tid>/schedstat``;
        the tick-sampled ``stat`` fields misattribute short requests)."""
        total = 0
        for task in Path(f"/proc/{self.process.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, IndexError, ValueError):
                pass  # the thread ended between the listing and the read
        return total / 1e9

    def client(self):
        from repro.service.client import ServiceClient

        # no transport retries: a refused request is a failed request
        return ServiceClient(self.socket_path, retries=0)

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.client().shutdown()
                self.process.wait(timeout=10)
            except Exception:  # noqa: BLE001 - fall through to kill
                pass
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.log.close()


class ServeSocket:
    name = "serve_socket"
    guarded = ("service.computations",)
    #: a phase is measured as the CPU time it costs the client and the
    #: server together: on a shared 2-vCPU host its wall time mostly
    #: measures when the host schedules the two processes
    clock = staticmethod(time.process_time)

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.setup_samples: List[float] = []
        self.workdir = OUT / f"serve-{os.getpid()}"
        self.server: Optional[ServerProcess] = None
        self.round = 0

    def setup(self) -> None:
        corpus = load_corpus()
        self.max_states = corpus.max_states
        self.designs = corpus_designs(corpus, limit=4 if self.smoke else None)

    def prepare(self) -> None:
        """In-process verdicts (the oracle), digests and the seeded request order."""
        from repro import Design

        self.expected: Dict[str, bool] = {}
        self.requests = []
        for entry, design in self.designs:
            for prop in PROPS:
                for method in METHODS:
                    qid = f"{design.name}|{prop}|{method}"
                    built = Design.from_source(design.source, name=design.name)
                    holds = bool(built.verify(prop, method, max_states=self.max_states).holds)
                    if holds != entry.holds(prop, method):
                        raise RuntimeError(f"{qid}: in-process verdict differs from the corpus")
                    self.expected[qid] = holds
                    self.requests.append((qid, design, prop, method))
        rng = random.Random(self.seed)
        rng.shuffle(self.requests)
        draws = 60 if self.smoke else CACHED_DRAWS
        self.cached = [rng.choice(self.requests) for _ in range(draws)]
        self.workdir.mkdir(parents=True, exist_ok=True)
        socket_path = self.workdir / "s.sock"
        relative = os.path.relpath(socket_path)
        self.socket_path = relative if len(relative) < len(str(socket_path)) else str(socket_path)

    # -- one round ------------------------------------------------------------------
    def _start(self, store: Path) -> ServerProcess:
        self.server = ServerProcess(self.socket_path, store, self.workdir / "server.log")
        self.setup_samples.append(self.server.start_seconds)
        return self.server

    def _stop(self, record: PassRecord, traced: bool) -> None:
        server, self.server = self.server, None
        if traced:
            client = server.client()
            stats = client.stats()
            record.add_count("service.computations", stats["computations"])
            record.add_count("service.cache_hits", stats["cache_hits"])
            record.add_count("service.verdict_store_hits", stats["verdict_store_hits"])
            record.add_count("service.coalesced", stats["coalesced"])
            record.add_count("service.failures", stats["failures"])
            for key in ("writes", "hits", "misses"):
                record.add_count(f"store.{key}", stats["store"][key])
            record.add_count("server.connections", stats["server"]["connections"])
        server.close()

    def _phase(self, server: ServerProcess, jobs, by_digest: bool, record: PassRecord, tracer: Tracer, phase: str):
        """Send ``jobs`` over ``CLIENTS`` closed-loop connections.

        Each request's latency lands in ``record.latencies`` under
        ``<phase>|<position>``: the same id every round, so a metric can take
        the median of one request across rounds.
        """
        clients = [server.client() for _ in range(CLIENTS)]
        cursor = iter(range(len(jobs)))
        lock = threading.Lock()
        failures: List[str] = []

        def loop(client) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                qid, design, prop, method = jobs[index]
                target = {"digest": design.digest} if by_digest else {"source": design.source}
                begin = time.perf_counter()
                try:
                    with tracer.span(f"service.request.{phase}", "service"):
                        verdict = client.verify(prop=prop, method=method, max_states=self.max_states, **target)
                except Exception as error:  # noqa: BLE001 - typed errors and refusals fail
                    failures.append(f"{phase} {qid}: {type(error).__name__}: {error}")
                    continue
                record.latencies[f"{phase}|{index}"] = time.perf_counter() - begin
                if bool(verdict.get("holds")) != self.expected[qid]:
                    failures.append(f"{phase} {qid}: socket holds={verdict.get('holds')}")

        started, client_cpu, server_cpu = time.perf_counter(), self.clock(), server.cpu_seconds()
        threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record.seconds += time.perf_counter() - started
        record.groups[phase] = self.clock() - client_cpu + server.cpu_seconds() - server_cpu
        record.attempted += len(jobs)
        for failure in failures:
            record.fail(failure)
        record.add_count("client.requests", sum(client.requests for client in clients))

    def run_pass(self, tracer: Tracer) -> PassRecord:
        record = PassRecord(clock=self.clock)
        self.round += 1
        store = self.workdir / f"store-{self.round}"
        shutil.rmtree(store, ignore_errors=True)
        try:
            server = self._start(store)
            record.sample_reference()
            self._phase(server, self.requests, False, record, tracer, "cold")
            self._stop(record, tracer.enabled)
            server = self._start(store)
            record.sample_reference()
            self._phase(server, self.requests, False, record, tracer, "warm")
            record.sample_reference()
            self._phase(server, self.cached, True, record, tracer, "cached")
            if tracer.enabled:
                self._traced_extras(server, record, tracer)
            self._stop(record, tracer.enabled)
        finally:
            if self.server is not None:
                self.server.close()
                self.server = None
            shutil.rmtree(store, ignore_errors=True)
        # record.seconds holds the three phases only: server restarts are
        # set-up, and the traced round's extra calls would otherwise count
        # as tracing overhead
        return record

    def _traced_extras(self, server: ServerProcess, record: PassRecord, tracer: Tracer) -> None:
        """Transport round trips, the in-process service stack and the oracle replay."""
        from repro import Design

        client = server.client()
        for _ in range(PINGS):
            with tracer.span("service.ping", "service"):
                client.ping()
        record.add_count("client.requests", client.requests)
        self._in_process_service(tracer)
        for qid, design, prop, method in self.requests:
            with tracer.span("api.query", "api"):
                with tracer.span("lang.from_source", "lang"):
                    built = Design.from_source(design.source, name=design.name)
                with tracer.span("lang.digest", "lang"):
                    built.digest()
                if method == "static":
                    with tracer.span("clocks.analysis", "clocks"):
                        built.component_analyses()
                        built.analysis
                    with tracer.span("properties.criterion", "properties"):
                        built.criterion()
                    with tracer.span("api.static.verify", "api"):
                        verdict = built.verify(prop, method, max_states=self.max_states)
                else:
                    with tracer.span("mc.compile", "mc"):
                        product_engine(built, self.max_states)
                    with tracer.span("mc.compiled.verify", "mc"):
                        verdict = built.verify(prop, method, max_states=self.max_states)
            count_verdict(verdict, record)
            count_design(built, record)
            if bool(verdict.holds) != self.expected[qid]:
                record.fail(f"in-process {qid}: holds={verdict.holds}")

    def _in_process_service(self, tracer: Tracer) -> None:
        """``VerificationService`` and ``ArtifactStore`` called directly."""
        from repro.lang.printer import options_fingerprint
        from repro.service.scheduler import VerificationService
        from repro.service.store import ArtifactStore

        root = self.workdir / f"inproc-{self.round}"
        shutil.rmtree(root, ignore_errors=True)
        store = ArtifactStore(root)
        service = VerificationService(store=store)
        options_key = options_fingerprint({"max_states": self.max_states})
        try:
            # one registration per distinct source: a repeat is a dict hit
            for source in dict.fromkeys(design.source for _entry, design in self.designs):
                with tracer.span("service.register", "service"):
                    service.register(source)

            async def cached_queries() -> None:
                for _qid, design, prop, method in self.requests:
                    await service.verify(design.digest, prop, method, max_states=self.max_states)
                for _qid, design, prop, method in self.cached:
                    with tracer.span("service.scheduler_cached", "service"):
                        await service.verify(design.digest, prop, method, max_states=self.max_states)

            asyncio.run(cached_queries())
            for _qid, design, prop, method in self.requests:
                with tracer.span("service.store_load_verdict", "service"):
                    verdict = store.load_verdict(design.digest, prop, method, options_key)
                with tracer.span("service.store_write", "service"):
                    store.store_verdict(design.digest, prop, method, options_key, verdict)
        finally:
            service.close()
            shutil.rmtree(root, ignore_errors=True)

    # -- metrics --------------------------------------------------------------------
    # Percentiles are taken over per-request medians across rounds.  A round
    # has 240 cold, 240 warm and 1200 cached requests, so p95 of the cold
    # phase and p99 of the cached phase each leave >= 10 requests beyond.
    def named(self, passes: List[PassRecord]) -> Dict[str, Dict[str, object]]:
        per_request = per_op(passes)

        def entry(phase: str, q: float, scale, unit: str) -> Dict[str, object]:
            values = [v for op, v in per_request.items() if op.startswith(phase + "|")]
            return {"value": scale(percentile(values, q)), "unit": unit, "samples": len(values) * len(passes)}

        return {
            "cold_p50_ms": entry("cold", 50, ms, "ms"),
            "cold_p95_ms": entry("cold", 95, ms, "ms"),
            "warm_p50_ms": entry("warm", 50, ms, "ms"),
            "cached_p50_us": entry("cached", 50, us, "us"),
            "cached_p99_us": entry("cached", 99, us, "us"),
        }

    def pass_seconds(self, passes: List[PassRecord]) -> float:
        """The three phases of a round, each at its median CPU time."""
        return sum(median(record.groups[phase] for record in passes) for phase in ("cold", "warm", "cached"))

    def layers(self, passes: List[PassRecord], tracer: Tracer) -> Dict[str, float]:
        rounds = len(passes)
        values = {
            "service.transport_rtt_us": us(median(tracer.durations("service.ping"))),
            "service.scheduler_cached_us": us(median(tracer.durations("service.scheduler_cached"))),
            "service.register_ms": ms(median(tracer.durations("service.register"))),
            "service.store_load_verdict_us": us(median(tracer.durations("service.store_load_verdict"))),
            "service.store_write_ms": ms(median(tracer.durations("service.store_write"))),
        }
        for name in ("lang.from_source", "lang.digest", "clocks.analysis", "properties.criterion", "mc.compile", "mc.compiled.verify"):
            values[f"{name}_ms"] = ms(sum(tracer.durations(name)) / rounds)
        counts = passes[-1].counts
        values.update(counts)
        values.update(kernel_metrics(counts))
        return values

    def peak_rss_mb(self) -> float:
        """The server's peak (the largest waited-for child process)."""
        return peak_rss_mb(children=True)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        shutil.rmtree(self.workdir, ignore_errors=True)
