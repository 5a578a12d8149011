"""F-FLT — the price of fault tolerance: rejection is cheap, checksums are free.

Two gates on the machinery the chaos suite exercises:

1. *Overload rejection* — admission control exists so an overloaded service
   spends almost nothing on the queries it turns away.  **Gate: one typed
   ``ServiceOverloaded`` rejection is ≥ 100× cheaper than computing the
   query cold.**
2. *Checksummed reads* — every artifact read verifies a SHA-256 envelope
   before parsing.  **Gate: warm reads stay within 10% of the plain
   (pre-envelope) format**, so integrity protection does not erode the
   store's warm-start advantage.

Run with:  pytest benchmarks/bench_faults.py
(the assertions also run in the plain suite; CI uploads the JSON)
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import time

from _record import recorder, timed

from repro.gen.topologies import pipeline_network
from repro.service import ArtifactStore, ServiceOverloaded, VerificationService

RECORD = recorder("faults")

#: admission-control rejections measured per run
REJECTIONS = 200
#: required cold-compute-to-rejection cost ratio
REJECTION_ADVANTAGE = 100.0
#: store reads per repetition, best of REPEATS repetitions
READS = 2000
REPEATS = 5
#: allowed warm-read slowdown from the integrity envelope
CHECKSUM_OVERHEAD = 0.10


def test_overload_rejection_is_100x_cheaper_than_cold_compute():
    # the cost being avoided: one cold computation of the query
    _components, composition = pipeline_network(6)
    cold = VerificationService()
    digest = cold.register([composition], name=composition.name)
    verdict, cold_seconds = timed(
        cold.verify_blocking, digest, "non-blocking", method="compiled"
    )
    assert verdict["holds"]
    cold.close()

    # max_inflight=0: every query that would compute is refused on arrival
    service = VerificationService(max_inflight=0, max_queue=0)
    _rebuilt_components, rebuilt = pipeline_network(6)
    rejected_digest = service.register([rebuilt], name=rebuilt.name)

    async def hammer() -> int:
        refused = 0
        for _ in range(REJECTIONS):
            try:
                await service.verify(rejected_digest, "non-blocking", method="compiled")
            except ServiceOverloaded as rejection:
                assert rejection.retry_after > 0
                refused += 1
        return refused

    start = time.perf_counter()
    refused = asyncio.run(hammer())
    elapsed = time.perf_counter() - start
    assert refused == REJECTIONS
    assert service.rejected == REJECTIONS
    assert service.computations == 0
    service.close()

    per_rejection = elapsed / REJECTIONS
    RECORD.record(
        f"{REJECTIONS} overload rejections vs one cold pipeline_6 compute",
        seconds=elapsed,
        per_rejection_seconds=round(per_rejection, 9),
        cold_seconds=round(cold_seconds, 6),
        advantage=round(cold_seconds / max(per_rejection, 1e-12)),
    )
    assert per_rejection * REJECTION_ADVANTAGE <= cold_seconds, (
        f"a rejection costs {per_rejection * 1e6:.1f}µs — less than "
        f"{REJECTION_ADVANTAGE:.0f}× under the {cold_seconds:.4f}s cold compute"
    )


def test_checksummed_reads_stay_within_10_percent_of_plain():
    # a realistic artifact: the size and shape of a stored verdict
    payload = {
        "prop": "non-blocking",
        "holds": True,
        "method": "compiled",
        "diagnostics": [
            {"name": f"clause_{index}", "holds": True, "detail": "x" * 40}
            for index in range(40)
        ],
        "cost": {"states": 4096, "bdd_nodes": 1234},
    }
    digest = "ab" * 32
    checked_root = tempfile.mkdtemp(prefix="repro-bench-checked-")
    plain_root = tempfile.mkdtemp(prefix="repro-bench-plain-")
    try:
        checked = ArtifactStore(checked_root, checksums=True)
        plain = ArtifactStore(plain_root, checksums=False)
        checked.put(digest, "verdict", payload)
        plain.put(digest, "verdict", payload)
        assert checked.get(digest, "verdict") == plain.get(digest, "verdict")

        def read_loop(store: ArtifactStore) -> None:
            for _ in range(READS):
                store.get(digest, "verdict")

        checked_seconds = min(timed(read_loop, checked)[1] for _ in range(REPEATS))
        plain_seconds = min(timed(read_loop, plain)[1] for _ in range(REPEATS))
        assert checked.verified >= READS and plain.unverified >= READS

        overhead = checked_seconds / max(plain_seconds, 1e-12) - 1.0
        RECORD.record(
            f"{READS} warm reads, checksummed envelope vs plain object",
            seconds=checked_seconds,
            plain_seconds=round(plain_seconds, 6),
            overhead_percent=round(overhead * 100, 2),
            payload_bytes=len(json.dumps(payload)),
        )
        assert overhead <= CHECKSUM_OVERHEAD, (
            f"envelope verification costs {overhead * 100:.1f}% on warm reads "
            f"(budget {CHECKSUM_OVERHEAD * 100:.0f}%)"
        )
    finally:
        shutil.rmtree(checked_root, ignore_errors=True)
        shutil.rmtree(plain_root, ignore_errors=True)
