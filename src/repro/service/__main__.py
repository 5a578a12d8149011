"""``python -m repro.service`` / ``repro-serve`` — the service CLI.

Subcommands::

    serve   --socket PATH [--store DIR] [--backend inline|process]
            [--workers N] [--cache-size N] [--source FILE ...]
            [--trace] [--trace-out FILE] [--slow-query-threshold SECONDS]
    submit  --socket PATH --source FILE --prop P [--method M] [--max-states N]
    query   --socket PATH --digest D    --prop P [--method M] [--max-states N]
    stats   --socket PATH [--format table|json|prom]
    metrics --socket PATH [--format table|json|prom]
    digest  --source FILE               (offline: print the content digest)

``serve`` runs until interrupted (or until a client sends ``shutdown``);
``submit`` registers a source file and verifies in one round trip; ``query``
addresses an already-registered design by digest; ``stats`` reports the
historical nested counters (``.artifacts.stages`` — hits / store hits /
computed / invalidated per pipeline stage); ``metrics`` serves the unified
``repro_*`` registry snapshot.  Both share one formatter: ``--format json``
(the default; one object per line, composes with ``jq``), ``--format
table`` (aligned two-column text) or ``--format prom`` (Prometheus text
exposition — for ``stats`` the nested dict is flattened to untyped gauges,
for ``metrics`` it is the real typed exposition).

``serve --trace`` enables span tracing for the served process (equivalent
to ``REPRO_TRACE=1``); ``--trace-out FILE`` writes the collected spans as
Chrome trace-event JSON on shutdown (open in Perfetto or
``chrome://tracing``); ``--slow-query-threshold`` logs computed queries
slower than the threshold into the scheduler's slow-query log (visible
under ``stats``'s ``slow_queries``).

A server that cannot be reached (absent socket, nothing listening) exits 1
with a one-line hint on stderr after the client's bounded retries
(``--retries``); typed server-side failures exit 2 with the error as JSON.
``serve`` honors ``REPRO_FAULT_PLAN`` (see :mod:`repro.service.faults`),
wiring one deterministic fault plan through the store and the backend —
the chaos harness's entry point for a served process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.obs import export as obs_export
from repro.obs import trace as obs_trace
from repro.service.client import ServiceClient
from repro.service.errors import ServiceError, ServiceUnavailable
from repro.service.faults import FaultPlan
from repro.service.scheduler import (
    InlineBackend,
    ProcessPoolBackend,
    VerificationService,
)
from repro.service.server import ServiceServer
from repro.service.store import ArtifactStore


def _emit(payload: object) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _options(arguments: argparse.Namespace) -> dict:
    options = {}
    if arguments.max_states is not None:
        options["max_states"] = arguments.max_states
    return options


def _client(arguments: argparse.Namespace) -> ServiceClient:
    return ServiceClient(arguments.socket, retries=arguments.retries)


def _serve(arguments: argparse.Namespace) -> int:
    # --trace is the CLI spelling of REPRO_TRACE=1; either enables the
    # process-wide tracer before any service object is built
    obs_trace.configure_from_env()
    if getattr(arguments, "trace", False):
        obs_trace.configure(enabled=True)
    fault_plan = FaultPlan.from_env()
    store = (
        ArtifactStore(arguments.store, fault_plan=fault_plan)
        if arguments.store
        else None
    )
    if arguments.backend == "process":
        backend = ProcessPoolBackend(
            workers=arguments.workers,
            store_root=arguments.store,
            fault_plan=fault_plan,
        )
    else:
        backend = InlineBackend(workers=arguments.workers, fault_plan=fault_plan)
    service = VerificationService(
        store=store,
        backend=backend,
        cache_size=arguments.cache_size,
        max_inflight=arguments.max_inflight,
        max_queue=arguments.max_queue,
        slow_query_threshold=arguments.slow_query_threshold,
    )
    if fault_plan is not None:
        _emit({"fault_plan": fault_plan.stats()})
    for source in arguments.source or []:
        digest = service.register(Path(source).read_text(encoding="utf-8"))
        _emit({"registered": source, "digest": digest})
    server = ServiceServer(service, arguments.socket)
    _emit(
        {
            "serving": arguments.socket,
            "backend": backend.describe(),
            "tracing": obs_trace.enabled(),
        }
    )
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        if arguments.trace_out and obs_trace.enabled():
            spans = obs_trace.get_tracer().spans
            obs_export.write_chrome_trace(spans, arguments.trace_out)
            _emit({"trace_out": arguments.trace_out, "spans": len(spans)})
    return 0


def _submit(arguments: argparse.Namespace) -> int:
    source = Path(arguments.source).read_text(encoding="utf-8")
    with _client(arguments) as client:
        digest = client.register(source)
        verdict = client.verify(
            digest=digest,
            prop=arguments.prop,
            method=arguments.method,
            deadline=arguments.deadline,
            **_options(arguments),
        )
    _emit(verdict)
    return 0 if verdict.get("holds") else 1


def _query(arguments: argparse.Namespace) -> int:
    with _client(arguments) as client:
        verdict = client.verify(
            digest=arguments.digest,
            prop=arguments.prop,
            method=arguments.method,
            deadline=arguments.deadline,
            **_options(arguments),
        )
    _emit(verdict)
    return 0 if verdict.get("holds") else 1


def _render_stats(payload: dict, format: str) -> None:
    """The shared stats/metrics formatter (nested-dict flavor)."""
    if format == "json":
        _emit(payload)
    elif format == "table":
        sys.stdout.write(obs_export.format_table(obs_export.flatten_stats(payload)))
    else:  # prom: a flattened untyped-gauge rendering of the nested dict
        for key, value in obs_export.flatten_stats(payload):
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                name = "repro_stats_" + "".join(
                    ch if ch.isalnum() else "_" for ch in key
                )
                sys.stdout.write(f"{name} {value}\n")


def _stats(arguments: argparse.Namespace) -> int:
    with _client(arguments) as client:
        stats = client.stats()
    _render_stats(stats, arguments.format)
    return 0


def _metrics(arguments: argparse.Namespace) -> int:
    with _client(arguments) as client:
        snapshot = client.metrics()
    if arguments.format == "json":
        _emit(snapshot)
    elif arguments.format == "table":
        sys.stdout.write(
            obs_export.format_table(obs_export.snapshot_rows(snapshot))
        )
    else:
        sys.stdout.write(obs_export.to_prometheus(snapshot))
    return 0


def _digest(arguments: argparse.Namespace) -> int:
    from repro.api.session import Design

    design = Design.from_source(Path(arguments.source).read_text(encoding="utf-8"))
    _emit({"design": design.name, "digest": design.digest()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Concurrent verification service over a content-addressed artifact store",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the service on a Unix socket")
    serve.add_argument("--socket", required=True, help="Unix socket path to bind")
    serve.add_argument("--store", help="artifact store directory (omit for in-memory only)")
    serve.add_argument(
        "--backend", choices=("inline", "process"), default="inline",
        help="inline thread pool (shared memos) or process pool (parallel CPU)",
    )
    serve.add_argument("--workers", type=int, default=1, help="worker pool size")
    serve.add_argument("--cache-size", type=int, default=1024, help="LRU verdict cache entries")
    serve.add_argument(
        "--source", action="append", help="Signal source file(s) to pre-register"
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None,
        help="admission control: distinct in-flight computations before "
             "queries are rejected as overloaded (default: unbounded)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=0,
        help="extra in-flight computations admitted beyond --max-inflight",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="enable span tracing for the served process (= REPRO_TRACE=1)",
    )
    serve.add_argument(
        "--trace-out", default=None,
        help="write collected spans as Chrome trace-event JSON on shutdown",
    )
    serve.add_argument(
        "--slow-query-threshold", type=float, default=0.0,
        help="log computed queries slower than this many seconds "
             "(0 = disabled; see stats .slow_queries)",
    )
    serve.set_defaults(handler=_serve)

    def _query_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument("--socket", required=True)
        command.add_argument("--prop", required=True, help="property to verify")
        command.add_argument("--method", default="auto")
        command.add_argument("--max-states", type=int, default=None)
        command.add_argument(
            "--deadline", type=float, default=None,
            help="per-query deadline in seconds (typed deadline-exceeded error)",
        )
        command.add_argument(
            "--retries", type=int, default=2,
            help="transport retries before giving up (exponential backoff)",
        )

    submit = commands.add_parser("submit", help="register a source file and verify it")
    submit.add_argument("--source", required=True, help="Signal source file")
    _query_arguments(submit)
    submit.set_defaults(handler=_submit)

    query = commands.add_parser("query", help="verify an already-registered digest")
    query.add_argument("--digest", required=True)
    _query_arguments(query)
    query.set_defaults(handler=_query)

    def _report_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument("--socket", required=True)
        command.add_argument(
            "--retries", type=int, default=2,
            help="transport retries before giving up (exponential backoff)",
        )
        command.add_argument(
            "--format", choices=("json", "table", "prom"), default="json",
            help="output format (shared by stats and metrics)",
        )

    stats = commands.add_parser(
        "stats", help="print service counters (incl. per-stage artifact-graph counters)"
    )
    _report_arguments(stats)
    stats.set_defaults(handler=_stats)

    metrics = commands.add_parser(
        "metrics",
        help="print the unified repro_* metrics snapshot (json/table/prom)",
    )
    _report_arguments(metrics)
    metrics.set_defaults(handler=_metrics)

    digest = commands.add_parser("digest", help="print a source file's content digest")
    digest.add_argument("--source", required=True)
    digest.set_defaults(handler=_digest)
    return parser


def main(argv=None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ServiceUnavailable as error:
        print(
            f"repro-serve: cannot reach {arguments.socket} — is the server "
            f"running? ({error})",
            file=sys.stderr,
        )
        return 1
    except ServiceError as error:
        _emit({"error": str(error), "code": error.code})
        return 2
    except FileNotFoundError as error:
        _emit({"error": str(error)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
