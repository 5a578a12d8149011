"""Collectors: the bridge from legacy ``stats()`` surfaces to the registry.

Each factory here takes a live object (a store, a scheduler, a client, a
BDD manager, the tracer) and returns a **collector** — a zero-argument
callable yielding metric-family dicts — for
:meth:`repro.obs.metrics.MetricsRegistry.register_collector`.  The objects
keep their existing counters (and their ``stats()`` methods keep working,
with the historically drifted key names preserved as deprecated aliases);
the collectors are the single place that maps every one of them onto the
canonical ``repro_*`` namespace:

==============================================  ===================================
family                                          source counter
==============================================  ===================================
``repro_store_reads_total{outcome=}``           ``ArtifactStore`` hits/misses/invalid
``repro_store_writes_total{outcome=}``          writes / write_errors
``repro_store_quarantined_total`` / healed      quarantine & self-heal events
``repro_service_queries_total{outcome=}``       scheduler cache_hits / coalesced /
                                                verdict_store_hits / computed /
                                                rejected / deadline_exceeded / failed
``repro_service_inflight``                      live in-flight gauge
``repro_artifact_stage_total{stage=,outcome=}`` per-stage ArtifactGraph counters
``repro_bdd_*``                                 kernel counters (apply, and_exists,
                                                rename), incl. the derived
                                                ``repro_bdd_apply_cache_hit_ratio``
``repro_backend_*``                             pool rebuilds / redispatches
``repro_faults_injected_total{site=}``          ``FaultPlan.injected``
``repro_server_connections_total`` / requests   ``ServiceServer`` accepted sockets /
                                                request lines
``repro_client_*``                              ``ServiceClient`` requests/retries/
                                                sockets opened
``repro_trace_spans_*``                         tracer bookkeeping
==============================================  ===================================
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

Family = Dict[str, object]
Collector = Callable[[], Iterable[Family]]


def _counter(name: str, help: str, samples) -> Family:
    return {"name": name, "type": "counter", "help": help, "samples": samples}


def _gauge(name: str, help: str, samples) -> Family:
    return {"name": name, "type": "gauge", "help": help, "samples": samples}


def _sample(value, **labels) -> Dict[str, object]:
    return {"labels": {k: str(v) for k, v in labels.items()}, "value": float(value)}


# -- store -----------------------------------------------------------------------
def store_collector(store) -> Collector:
    def collect() -> List[Family]:
        return [
            _counter(
                "repro_store_reads_total",
                "Artifact store reads by outcome",
                [
                    _sample(store.hits, outcome="hit"),
                    _sample(store.misses, outcome="miss"),
                    _sample(store.invalid, outcome="invalid"),
                    _sample(store.read_errors, outcome="error"),
                ],
            ),
            _counter(
                "repro_store_writes_total",
                "Artifact store writes by outcome",
                [
                    _sample(store.writes, outcome="ok"),
                    _sample(store.write_errors, outcome="error"),
                ],
            ),
            _counter(
                "repro_store_quarantined_total",
                "Corrupt artifacts moved aside",
                [_sample(store.quarantined)],
            ),
            _counter(
                "repro_store_healed_total",
                "Quarantined artifacts rewritten by a later put",
                [_sample(getattr(store, "healed", 0))],
            ),
            _counter(
                "repro_store_checksum_verified_total",
                "Envelope checksum verifications by outcome",
                [
                    _sample(store.verified, outcome="verified"),
                    _sample(store.unverified, outcome="unverified"),
                ],
            ),
            _gauge(
                "repro_store_objects",
                "Objects currently in the store",
                [_sample(store.object_count())],
            ),
        ]

    return collect


# -- scheduler / service ----------------------------------------------------------
def service_collector(service) -> Collector:
    def collect() -> List[Family]:
        families: List[Family] = [
            _counter(
                "repro_service_queries_total",
                "Verification queries by outcome tier",
                [
                    _sample(service.queries, outcome="all"),
                    _sample(service.cache_hits, outcome="cache_hit"),
                    _sample(service.verdict_store_hits, outcome="store_hit"),
                    _sample(service.coalesced, outcome="coalesced"),
                    _sample(service.computations, outcome="computed"),
                    _sample(service.rejected, outcome="rejected"),
                    _sample(service.deadline_exceeded, outcome="deadline_exceeded"),
                    _sample(service.failures, outcome="failed"),
                ],
            ),
            _gauge(
                "repro_service_inflight",
                "Queries currently being computed",
                [_sample(len(service._inflight))],
            ),
            _gauge(
                "repro_service_cache_entries",
                "Verdict LRU cache occupancy",
                [_sample(len(service._cache))],
            ),
        ]
        described = service.backend.describe()
        backend_samples = [
            _sample(described.get("pool_rebuilds", 0), event="pool_rebuild"),
            _sample(described.get("redispatched", 0), event="redispatch"),
        ]
        families.append(
            _counter(
                "repro_backend_recoveries_total",
                "Backend crash-recovery actions",
                backend_samples,
            )
        )
        fault_families = _fault_families(service.backend.fault_stats())
        families.extend(fault_families)
        families.extend(_stage_families(service.artifact_stats()["stages"]))
        return families

    return collect


def _fault_families(fault_stats) -> List[Family]:
    if not fault_stats:
        return []
    samples = [
        _sample(count, site=site)
        for site, count in sorted(fault_stats.get("injected", {}).items())
    ]
    if not samples:
        samples = [_sample(fault_stats.get("total_injected", 0), site="all")]
    return [
        _counter(
            "repro_faults_injected_total",
            "Deterministic fault injections by site.mode",
            samples,
        )
    ]


def fault_plan_collector(plan) -> Collector:
    def collect() -> List[Family]:
        return _fault_families(plan.stats())

    return collect


# -- artifact graph ----------------------------------------------------------------
def _stage_families(stages: Dict[str, Dict[str, int]]) -> List[Family]:
    samples = []
    for stage, counters in sorted(stages.items()):
        for outcome, count in sorted(counters.items()):
            if count:
                samples.append(_sample(count, stage=stage, outcome=outcome))
    if not samples:
        return []
    return [
        _counter(
            "repro_artifact_stage_total",
            "Artifact-graph stage resolutions by outcome",
            samples,
        )
    ]


def graph_collector(graph) -> Collector:
    def collect() -> List[Family]:
        stats = graph.stats()
        families = _stage_families(stats["stages"])
        families.append(
            _counter(
                "repro_artifact_resolutions_total",
                "Graph-wide resolutions by tier",
                [
                    _sample(stats["hits"], tier="memory"),
                    _sample(stats["store_hits"], tier="store"),
                    _sample(stats["computed"], tier="computed"),
                ],
            )
        )
        families.append(
            _gauge(
                "repro_artifact_nodes",
                "Live artifact-graph nodes",
                [_sample(stats["nodes"])],
            )
        )
        seconds = stats.get("stage_seconds") or {}
        if seconds:
            families.append(
                _gauge(
                    "repro_artifact_stage_self_seconds",
                    "Cumulative per-stage compute self-time",
                    [
                        _sample(round(value, 6), stage=stage)
                        for stage, value in sorted(seconds.items())
                    ],
                )
            )
        return families

    return collect


# -- BDD kernel --------------------------------------------------------------------
def bdd_collector(manager) -> Collector:
    def collect() -> List[Family]:
        stats = manager.stats()
        lookups = stats.get("apply_cache_lookups", 0)
        hits = stats.get("apply_cache_hits", 0)
        ratio = (hits / lookups) if lookups else 0.0
        families = [
            _counter(
                "repro_bdd_apply_calls_total",
                "Public apply() invocations",
                [_sample(stats.get("apply_calls", 0))],
            ),
            _counter(
                "repro_bdd_apply_cache_lookups_total",
                "Apply-cache probes",
                [_sample(lookups)],
            ),
            _counter(
                "repro_bdd_apply_cache_hits_total",
                "Apply-cache probe hits",
                [_sample(hits)],
            ),
            _gauge(
                "repro_bdd_apply_cache_hit_ratio",
                "Apply-cache hit ratio (hits / lookups)",
                [_sample(round(ratio, 6))],
            ),
            _gauge(
                "repro_bdd_nodes",
                "Live nodes in the unique table",
                [_sample(stats.get("nodes", 0))],
            ),
            _gauge(
                "repro_bdd_peak_nodes",
                "Peak unique-table size observed",
                [_sample(stats.get("peak_nodes", 0))],
            ),
            _counter(
                "repro_bdd_and_exists_calls_total",
                "Relational products (and_exists, exists, forall)",
                [_sample(stats.get("and_exists_calls", 0))],
            ),
            _counter(
                "repro_bdd_and_exists_cache_hits_total",
                "Relational-product computed-table hits",
                [_sample(stats.get("and_exists_cache_hits", 0))],
            ),
            _counter(
                "repro_bdd_leq_calls_total",
                "Non-constructive inclusion tests (leq)",
                [_sample(stats.get("leq_calls", 0))],
            ),
            _counter(
                "repro_bdd_intersects_calls_total",
                "Non-constructive satisfiability tests of a conjunction (intersects)",
                [_sample(stats.get("intersects_calls", 0))],
            ),
            _counter(
                "repro_bdd_rename_calls_total",
                "Variable renamings",
                [_sample(stats.get("rename_calls", 0))],
            ),
            _counter(
                "repro_bdd_reorder_runs_total",
                "Variable-reordering passes",
                [_sample(stats.get("reorder_runs", 0))],
            ),
        ]
        return families

    return collect


# -- server / client ---------------------------------------------------------------
def server_collector(server) -> Collector:
    def collect() -> List[Family]:
        return [
            _counter(
                "repro_server_connections_total",
                "Client connections accepted",
                [_sample(server.connections)],
            ),
            _counter(
                "repro_server_requests_total",
                "Request lines received",
                [_sample(server.requests)],
            ),
        ]

    return collect


def client_collector(client) -> Collector:
    def collect() -> List[Family]:
        return [
            _counter(
                "repro_client_connections_total",
                "Sockets opened to the server",
                [_sample(getattr(client, "connections", 0))],
            ),
            _counter(
                "repro_client_requests_total",
                "Client requests issued",
                [_sample(getattr(client, "requests", 0))],
            ),
            _counter(
                "repro_client_retries_total",
                "Transport-level retry attempts",
                [_sample(getattr(client, "retried", 0))],
            ),
        ]

    return collect


# -- tracer ------------------------------------------------------------------------
def tracer_collector(tracer) -> Collector:
    def collect() -> List[Family]:
        stats = tracer.stats()
        return [
            _counter(
                "repro_trace_spans_total",
                "Spans finished into the tracer",
                [_sample(stats["finished"])],
            ),
            _counter(
                "repro_trace_spans_dropped_total",
                "Spans lost to the max_spans bound",
                [_sample(stats["dropped"])],
            ),
            _counter(
                "repro_trace_spans_adopted_total",
                "Spans shipped back from worker processes",
                [_sample(stats["adopted"])],
            ),
            _gauge(
                "repro_trace_spans_collected",
                "Spans currently buffered",
                [_sample(stats["collected"])],
            ),
        ]

    return collect
