"""Chaos suite: the serving stack under deterministic injected faults.

The invariant every scenario pins — **correct or typed error, never a
wrong answer, never a hang**: under any :class:`repro.service.FaultPlan`
schedule, a query either returns a verdict identical (up to wall-clock
cost) to the fault-free run, or raises a typed
:class:`~repro.service.ServiceError` subclass the caller can act on.

Fault schedules are seeded, never drawn from wall-clock time or shared
:mod:`random` state, so every failure here replays exactly.  CI runs this
file under several ``REPRO_FAULT_PLAN`` seeds; the base seed below folds
that environment seed into every plan, so the matrix genuinely varies the
schedules while each single run stays reproducible.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import signal
import tempfile
import threading
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen.topologies import pipeline_network
from repro.service import (
    ArtifactStore,
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    InlineBackend,
    ProcessPoolBackend,
    QueryFailed,
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceServer,
    ServiceUnavailable,
    VerificationService,
)

FILTER_SOURCE = """
process filter (x) returns (y) {
  y := x when x;
}
"""

#: CI matrix entry point: REPRO_FAULT_PLAN's seed perturbs every plan here
ENV_PLAN = FaultPlan.from_env()
BASE_SEED = ENV_PLAN.seed if ENV_PLAN is not None else 0


def canonical(verdict) -> str:
    """A verdict's comparable form: everything but the wall-clock cost."""
    verdict = copy.deepcopy(dict(verdict))
    cost = verdict.get("cost")
    if isinstance(cost, dict):
        cost.pop("seconds", None)
    return json.dumps(verdict, sort_keys=True)


_BASELINES: dict = {}


def baseline(key: str, build, prop: str, method: str) -> str:
    """The fault-free canonical verdict for one query, computed once."""
    entry = _BASELINES.get((key, prop, method))
    if entry is None:
        service = VerificationService()
        digest = service.register(build(), name=key)
        entry = canonical(service.verify_blocking(digest, prop, method=method))
        service.close()
        _BASELINES[(key, prop, method)] = entry
    return entry


# ---------------------------------------------------------------------------
# the fault plan itself: determinism, independence, parsing
# ---------------------------------------------------------------------------

def test_fault_plan_same_seed_same_schedule():
    def draws(plan):
        return [plan._draw("exec") for _ in range(50)]

    first = FaultPlan(seed=11, rates={"exec": 0.6})
    second = FaultPlan(seed=11, rates={"exec": 0.6})
    assert draws(first) == draws(second)
    assert first.injected == second.injected
    other = FaultPlan(seed=12, rates={"exec": 0.6})
    assert draws(first) != draws(other)
    assert first.stats()["total_injected"] == sum(first.injected.values())


def test_fault_sites_draw_independently():
    exercised = FaultPlan(seed=3, rates={"exec": 0.5, "store_read": 0.9})
    untouched = FaultPlan(seed=3, rates={"exec": 0.5, "store_read": 0.9})
    for _ in range(40):
        exercised._draw("store_read")
    # hammering one site must not shift another site's schedule
    assert [exercised._draw("exec") for _ in range(30)] == [
        untouched._draw("exec") for _ in range(30)
    ]


def test_fault_plan_spec_parsing():
    plan = FaultPlan.from_spec("seed=7, store_read=0.3, exec.latency=0.5, latency=0.05")
    assert plan.seed == 7
    assert plan.latency == 0.05
    # only the latency mode is configured on exec, so a firing draw is latency
    fired = [plan.exec_fault() for _ in range(40)]
    assert ("latency", 0.05) in fired
    assert all(fault in (None, ("latency", 0.05)) for fault in fired)
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan.from_spec("bogus=1.0")
    with pytest.raises(ValueError, match="unknown mode"):
        FaultPlan(rates={"exec.bogus": 0.1})
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.from_spec("seed")


def test_fault_plan_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    assert FaultPlan.from_env() is None
    monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=42,connect=1.0")
    plan = FaultPlan.from_env()
    assert plan is not None
    assert plan.seed == 42
    assert plan.connect_fault() is True
    assert plan.injected["connect.refused"] == 1


def test_store_read_fault_modes_corrupt_the_text():
    text = '{"payload": [1, 2, 3], "holds": true}'
    torn_plan = FaultPlan(seed=5, rates={"store_read.torn": 1.0})
    torn = torn_plan.store_read(text)
    assert torn != text and text.startswith(torn)
    flip_plan = FaultPlan(seed=5, rates={"store_read.bitflip": 1.0})
    flipped = flip_plan.store_read(text)
    assert flipped != text and len(flipped) == len(text)
    error_plan = FaultPlan(seed=5, rates={"store_read.oserror": 1.0})
    with pytest.raises(OSError):
        error_plan.store_read(text)


# ---------------------------------------------------------------------------
# store faults: absorbed — never a wrong verdict, never an unhandled error
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(0, 9_999),
    read_rate=st.sampled_from([0.2, 0.5]),
    write_rate=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=5, deadline=None, derandomize=True)
def test_store_faults_never_change_a_verdict(seed, read_rate, write_rate):
    expected_nb = baseline("filter", lambda: FILTER_SOURCE, "non-blocking", "compiled")
    expected_we = baseline("filter", lambda: FILTER_SOURCE, "weak-endochrony", "compiled")
    with tempfile.TemporaryDirectory() as root:
        store_root = Path(root) / "store"
        warm = VerificationService(store=ArtifactStore(store_root))
        digest = warm.register(FILTER_SOURCE)
        warm.verify_blocking(digest, "non-blocking", method="compiled")
        warm.close()

        plan = FaultPlan(
            seed=BASE_SEED * 100_000 + seed,
            rates={"store_read": read_rate, "store_write": write_rate},
        )
        chaotic = VerificationService(
            store=ArtifactStore(store_root, fault_plan=plan)
        )
        chaos_digest = chaotic.register(FILTER_SOURCE)
        assert chaos_digest == digest
        # store faults are absorbed as misses / lost cache writes: every
        # query must still SUCCEED, with the fault-free verdict
        verdict = chaotic.verify_blocking(chaos_digest, "non-blocking", method="compiled")
        assert canonical(verdict) == expected_nb
        verdict = chaotic.verify_blocking(chaos_digest, "weak-endochrony", method="compiled")
        assert canonical(verdict) == expected_we
        chaotic.close()


def test_corrupted_store_quarantines_heals_and_warm_starts(tmp_path):
    root = tmp_path / "store"
    cold = VerificationService(store=ArtifactStore(root))
    digest = cold.register(FILTER_SOURCE)
    expected = canonical(cold.verify_blocking(digest, "non-blocking", method="compiled"))
    cold.close()

    # fuzz every object on disk: torn in half or one byte flipped
    rng = Random(BASE_SEED + 7)
    objects = sorted((root / "objects").glob("*/*/*.json"))
    assert objects, "the cold run must have persisted artifacts"
    for path in objects:
        text = path.read_text(encoding="utf-8")
        if rng.random() < 0.5:
            path.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
        else:
            position = rng.randrange(len(text))
            flipped = "X" if text[position] != "X" else "Y"
            path.write_text(
                text[:position] + flipped + text[position + 1 :], encoding="utf-8"
            )

    healed_store = ArtifactStore(root)
    healed = VerificationService(store=healed_store)
    healed_digest = healed.register(FILTER_SOURCE)
    assert healed_digest == digest
    verdict = healed.verify_blocking(healed_digest, "non-blocking", method="compiled")
    assert canonical(verdict) == expected
    assert healed.computations == 1, "nothing on disk was trustworthy"
    assert healed_store.quarantined >= 1
    assert list((root / "corrupt").glob("*.json")), "corrupt objects are kept aside"
    healed.close()

    # the recomputation healed the store: a third run answers from disk
    warm = VerificationService(store=ArtifactStore(root))
    warm_digest = warm.register(FILTER_SOURCE)
    assert canonical(
        warm.verify_blocking(warm_digest, "non-blocking", method="compiled")
    ) == expected
    assert warm.computations == 0
    warm.close()


# ---------------------------------------------------------------------------
# backend faults: typed failures, crash recovery
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 9_999), rate=st.sampled_from([0.1, 0.3, 0.5]))
@settings(max_examples=5, deadline=None, derandomize=True)
def test_exec_faults_yield_correct_verdict_or_typed_error(seed, rate):
    expected = baseline("filter", lambda: FILTER_SOURCE, "non-blocking", "compiled")
    plan = FaultPlan(
        seed=BASE_SEED * 100_000 + seed,
        rates={"exec.exception": rate, "exec.latency": rate / 4},
        latency=0.001,
    )
    service = VerificationService(backend=InlineBackend(fault_plan=plan))
    try:
        digest = service.register(FILTER_SOURCE)
        successes = 0
        for _ in range(20):
            try:
                verdict = service.verify_blocking(digest, "non-blocking", method="compiled")
            except ServiceError as error:
                # the invariant's error half: typed, message-preserving
                assert isinstance(error, QueryFailed)
                assert FaultInjected.__name__ in str(error)
            else:
                assert canonical(verdict) == expected
                successes += 1
        assert successes >= 1, "a sub-certain fault rate must let retries through"
        assert service.failures == 20 - successes, "failed queries are never cached"
    finally:
        service.close()


def test_injected_worker_crash_recovers_with_one_rebuild():
    plan = FaultPlan(seed=BASE_SEED, rates={"exec.crash": 1.0})
    backend = ProcessPoolBackend(workers=1, fault_plan=plan)
    service = VerificationService(backend=backend)
    digest = service.register(FILTER_SOURCE)
    verdict = service.verify_blocking(digest, "non-blocking", method="compiled")
    assert verdict["holds"] is True
    described = service.stats()["backend"]
    assert described["pool_rebuilds"] == 1
    assert described["redispatched"] == 1
    assert plan.injected["exec.crash"] == 1
    service.close()


def test_real_worker_kill_mid_query_recovers():
    # a latency fault parks the query inside the worker long enough for the
    # test to SIGKILL the real worker process out from under it
    plan = FaultPlan(seed=BASE_SEED, rates={"exec.latency": 1.0}, latency=2.0)
    backend = ProcessPoolBackend(workers=1, fault_plan=plan)
    service = VerificationService(backend=backend)
    digest = service.register(FILTER_SOURCE)

    async def scenario():
        query = asyncio.ensure_future(
            service.verify(digest, "non-blocking", method="compiled")
        )
        pids = {}
        for _ in range(200):
            await asyncio.sleep(0.01)
            pids = dict(backend._pool._processes)
            if pids:
                break
        assert pids, "the pool never started a worker"
        await asyncio.sleep(0.3)  # the worker is asleep in its injected latency
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        return await query

    verdict = asyncio.run(scenario())
    assert verdict["holds"] is True
    assert service.stats()["backend"]["pool_rebuilds"] >= 1
    service.close()


# ---------------------------------------------------------------------------
# deadlines and admission control
# ---------------------------------------------------------------------------

def test_deadline_is_typed_and_keeps_the_shared_computation():
    plan = FaultPlan(seed=BASE_SEED, rates={"exec.latency": 1.0}, latency=0.4)
    service = VerificationService(backend=InlineBackend(fault_plan=plan))
    digest = service.register(FILTER_SOURCE)

    async def scenario():
        with pytest.raises(DeadlineExceeded, match="deadline"):
            await service.verify(digest, "non-blocking", method="compiled", deadline=0.05)
        # the computation survived the caller's deadline: re-asking joins it
        return await service.verify(digest, "non-blocking", method="compiled")

    verdict = asyncio.run(scenario())
    assert verdict["holds"] is True
    assert service.computations == 1, "the deadline must not cancel shared work"
    assert service.deadline_exceeded == 1
    assert service.coalesced == 1
    service.close()


def test_admission_control_rejects_with_a_retry_after_hint():
    plan = FaultPlan(seed=BASE_SEED, rates={"exec.latency": 1.0}, latency=0.4)
    service = VerificationService(
        backend=InlineBackend(fault_plan=plan), max_inflight=1, max_queue=0
    )
    digest_a = service.register(FILTER_SOURCE)
    _, composition = pipeline_network(2)
    digest_b = service.register([composition], name="pipeline_2")

    async def scenario():
        first = asyncio.ensure_future(
            service.verify(digest_a, "non-blocking", method="compiled")
        )
        await asyncio.sleep(0.05)  # let it occupy the only in-flight slot
        with pytest.raises(ServiceOverloaded) as rejection:
            await service.verify(digest_b, "non-blocking", method="compiled")
        assert rejection.value.retry_after is not None
        assert rejection.value.retry_after > 0
        # a duplicate of the in-flight query is a rider, never rejected
        rider = await service.verify(digest_a, "non-blocking", method="compiled")
        return await first, rider

    verdict, rider = asyncio.run(scenario())
    assert canonical(verdict) == canonical(rider)
    assert service.rejected == 1
    assert service.coalesced == 1
    assert service.computations == 1
    assert service.stats()["admission"]["rejected"] == 1
    service.close()


# ---------------------------------------------------------------------------
# transport faults: bounded retries, typed exhaustion
# ---------------------------------------------------------------------------

@pytest.fixture()
def chaos_server(tmp_path):
    socket_path = tmp_path / "chaos.sock"
    service = VerificationService()
    server = ServiceServer(service, socket_path)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever(ready)), daemon=True
    )
    thread.start()
    assert ready.wait(10), "server did not come up"
    yield str(socket_path), service
    try:
        with ServiceClient(socket_path) as admin:
            admin.shutdown()
    except (ServiceError, OSError):
        pass
    thread.join(10)
    assert not thread.is_alive()


def test_transport_faults_yield_correct_verdict_or_typed_error(chaos_server):
    socket_path, _service = chaos_server
    steady = ServiceClient(socket_path)
    digest = steady.register(FILTER_SOURCE)
    expected = canonical(steady.verify(digest=digest, prop="non-blocking", method="compiled"))

    total_retried = 0
    for offset in range(3):
        seed = BASE_SEED * 10 + offset
        plan = FaultPlan(seed=seed, rates={"connect": 0.3, "response": 0.3})
        client = ServiceClient(
            socket_path, retries=4, backoff=0.001, jitter_seed=seed, fault_plan=plan
        )
        outcomes = []
        for _ in range(10):
            try:
                verdict = client.verify(digest=digest, prop="non-blocking", method="compiled")
            except ServiceError as error:
                # only the typed exhaustion error is acceptable
                assert isinstance(error, ServiceUnavailable)
                assert socket_path in str(error)
                outcomes.append("unavailable")
            else:
                assert canonical(verdict) == expected
                outcomes.append("ok")
        assert "ok" in outcomes, "retries must get some queries through"
        total_retried += client.retried
        client.close()
    steady.close()
    assert total_retried > 0, "the fault rates guarantee transport retries"


def test_connect_faults_fire_only_where_a_socket_opens(chaos_server):
    socket_path, _service = chaos_server
    plan = FaultPlan(seed=BASE_SEED, rates={"connect": 0.3, "response": 0.3})
    with ServiceClient(
        socket_path, retries=20, backoff=0.001, jitter_seed=BASE_SEED, fault_plan=plan
    ) as client:
        for _ in range(20):
            assert client.ping()
    refused = plan.injected["connect.refused"]
    truncated = plan.injected["response.truncate"]
    assert truncated > 0
    # every failed attempt was retried; each truncated response closed its
    # socket, so only those cost a new connection (and a new connect draw)
    assert refused + truncated == client.retried
    assert client.connections == 1 + truncated
