"""E-API — repeated multi-property verification: shared Design session vs per-call API.

The facade's claim: a :class:`repro.Design` session memoizes normalization,
per-component analyses and the composition's clock calculus in one shared
:class:`~repro.api.session.AnalysisContext`, so verifying several properties
of an N-component composition (or re-verifying after a cache hit) no longer
re-normalizes and re-hierarchizes every component per call — which is exactly
what the per-call ``verify_*`` functions of :mod:`repro.properties` do.

Both sides answer the same queries on the same 5-stage pipeline (≥ 4
components): the weakly hierarchic criterion, endochrony of the composition,
compilability, and a repeat of the criterion (the "same question asked
twice" that production query traffic is full of).

Run with:  pytest benchmarks/bench_api_session.py --benchmark-only
(the timing assertion of test_shared_session_is_strictly_faster also runs in
the plain tier-1 suite)
"""

import time

from _record import recorder

from repro import Design
from repro.gen.topologies import pipeline_network
from repro.properties import verify_compilable, verify_endochrony, verify_weakly_hierarchic

RECORD = recorder("api_session")

SIZE = 5
ROUNDS = 3


def _per_call_round(components, composition):
    """The per-call API: every call rebuilds its analyses from scratch."""
    return [
        verify_weakly_hierarchic(components, composition).holds,
        verify_endochrony(composition).holds,
        verify_compilable(composition).holds,
        verify_weakly_hierarchic(components, composition).holds,
    ]


def _session_round(design):
    """The facade: all four queries share the session's memoized artefacts."""
    return [
        bool(design.verify("weakly-hierarchic")),
        bool(design.verify("endochrony")),
        bool(design.verify("compilable")),
        bool(design.verify("weakly-hierarchic")),
    ]


def test_per_call_api(benchmark):
    """Baseline: the per-call functions, re-analyzing on every question."""
    components, composition = pipeline_network(SIZE)
    results = benchmark(_per_call_round, components, composition)
    assert results[0] is True and results[3] is True
    assert results[1] is False  # the composition keeps one root per stage


def test_shared_session(benchmark):
    """The facade: one session answers the same questions from its memo."""
    components, composition = pipeline_network(SIZE)
    design = Design(
        name=composition.name, components=list(components), composition=composition
    )
    results = benchmark(_session_round, design)
    assert results[0] is True and results[3] is True


def test_shared_session_is_strictly_faster():
    """Pin the caching win: ROUNDS rounds of queries, session vs per-call."""
    components, composition = pipeline_network(SIZE)

    start = time.perf_counter()
    for _ in range(ROUNDS):
        per_call = _per_call_round(components, composition)
    per_call_seconds = time.perf_counter() - start

    design = Design(
        name=composition.name, components=list(components), composition=composition
    )
    start = time.perf_counter()
    for _ in range(ROUNDS):
        session = _session_round(design)
    session_seconds = time.perf_counter() - start

    RECORD.record(f"pipeline_{SIZE} per-call x{ROUNDS}", seconds=per_call_seconds)
    RECORD.record(f"pipeline_{SIZE} session x{ROUNDS}", seconds=session_seconds)
    # both sides agree on every verdict (the composition itself is not
    # hierarchic — one root per pipeline stage — so query 2 is False)
    assert per_call == session == [True, False, True, True]
    # After the first round every session answer is a cache hit; the per-call
    # side rebuilds (components + 1) analyses per criterion call, every round.
    assert session_seconds < per_call_seconds, (
        f"shared session took {session_seconds * 1000:.1f} ms, "
        f"per-call API {per_call_seconds * 1000:.1f} ms"
    )
    # after the first round every query is a memory hit on its verdict node
    verdict_counters = design.context.stats()["stages"]["verdict"]
    assert verdict_counters["hits"] >= (ROUNDS - 1) * 4
    assert verdict_counters["computed"] == 3  # the three distinct queries
