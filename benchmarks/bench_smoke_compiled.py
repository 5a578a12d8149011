"""CI smoke gate: compiled-vs-eager on two small scenarios, <30 s total.

The full acceptance benchmark lives in ``bench_compiled.py``; this module is
the cheap regression tripwire CI runs on every push.  Two scenarios, one
rule: the compiled engine (compile time included) must never regress to more
than ``REGRESSION_FACTOR``× the eager interpreter-backed engine.  On these
sizes the compiled engine normally *wins* outright, so tripping the gate
means the compiled path lost an order of magnitude, not that a runner was
noisy.  Both measurements land in ``BENCH_smoke_compiled.json``, uploaded as
a CI artifact next to the other records.
"""

from __future__ import annotations

import time

import pytest

from _lts import materialize, materialize_compiled
from _record import recorder

from repro.gen.topologies import chain_of_buffers, pipeline_network

RECORD = recorder("smoke_compiled")

#: the smoke gate: compiled slower than this many times eager = regression
REGRESSION_FACTOR = 3.0

SCENARIOS = {
    "pipeline_5": lambda: pipeline_network(5)[1],
    "buffer_chain_3": lambda: chain_of_buffers(3)[1],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_compiled_does_not_regress(name):
    composition = SCENARIOS[name]()

    start = time.perf_counter()
    eager = materialize(composition, max_states=512)
    eager_seconds = time.perf_counter() - start

    start = time.perf_counter()
    compiled = materialize_compiled(composition, max_states=512)
    compiled_seconds = time.perf_counter() - start

    assert set(eager.states) == set(compiled.states)
    assert {(t.source, t.reaction, t.target) for t in eager.transitions} == {
        (t.source, t.reaction, t.target) for t in compiled.transitions
    }
    RECORD.record(f"{name} eager", seconds=eager_seconds, states=eager.state_count())
    RECORD.record(
        f"{name} compiled", seconds=compiled_seconds, states=compiled.state_count()
    )
    assert compiled_seconds < eager_seconds * REGRESSION_FACTOR, (
        f"compiled engine regressed on {name}: "
        f"{compiled_seconds:.3f}s vs eager {eager_seconds:.3f}s "
        f"(gate: {REGRESSION_FACTOR:.0f}×)"
    )
