"""F-BDD — the array kernel vs the reference kernel, scenario by scenario.

The pluggable BDD backend (:mod:`repro.bdd.backend`) promises identical
answers with a better constant factor.  This module measures where the
constant factor actually moves and pins the wins that are structural:

1. *Bulk enumeration* (``satisfy_matrix``) — the per-state workhorse of the
   compiled engine's ``reactions()``.  The reference kernel walks one cube
   at a time through Python recursion; the array kernel expands whole
   solution frontiers with numpy.  This is the kernel-dominated scenario,
   gated at **≥5×**.
2. *Hard apply* — the conjunction of two structurally independent
   inner-product functions, an adversarial case where nearly every
   subproblem allocates a fresh node (no sharing for the vectorized pass to
   exploit), gated at a conservative ≥1.3×.
3. *End-to-end pipeline sweeps* — compiled ``materialize()`` on relay
   pipelines, recorded on both backends **honestly, without a speedup
   gate**: at ``pipeline_8`` the whole run is ~30 ms and mostly non-BDD
   work (normalization, hierarchy, interning), so backend parity is the
   expected result; at ``pipeline_12`` the 4097-row enumeration starts to
   dominate and the array kernel pulls ahead.  The JSON records both so
   the trajectory is visible instead of cherry-picked.

Run with:  pytest benchmarks/bench_bdd.py --benchmark-only
(the timing assertions also run in the plain suite; CI uploads the JSON)
"""

from __future__ import annotations

import time

from _lts import materialize_compiled
from _record import recorder

from repro.bdd.backend import available_backends, create_manager, load_manager
from repro.library.generators import pipeline_network
from repro.mc.compiled import CompiledAbstraction

RECORD = recorder("bdd")

#: required advantage on the kernel-dominated bulk-enumeration scenario
ENUMERATION_SPEEDUP = 5.0
#: required advantage on the adversarial apply (every request a fresh node)
APPLY_SPEEDUP = 1.3

#: inner-product function width: ~2^IP_HALF nodes, exponential in any order
IP_HALF = 12


def _inner_product(manager, shift: int = 0):
    """``⊕ aᵢ·b₍ᵢ₊shift₎`` — exponential node count under a/b separation."""
    a = [manager.var(f"a{i}") for i in range(IP_HALF)]
    b = [manager.var(f"b{i}") for i in range(IP_HALF)]
    function = manager.false
    for index in range(IP_HALF):
        function = function ^ (a[index] & b[(index + shift) % IP_HALF])
    return function


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# 1. bulk enumeration: the ≥5× kernel-dominated gate
# ---------------------------------------------------------------------------

def test_satisfy_matrix_is_5x_faster_on_the_array_kernel():
    # the real workload: the compiled step relation of a 12-stage relay
    # pipeline, enumerated over its event/value/next variables (4097 rows) —
    # exactly what reactions() does per state, minus the interning
    _components, composition = pipeline_network(12)
    abstraction = CompiledAbstraction(composition)
    payload = abstraction.manager.dump([abstraction.step])
    variables = abstraction._enumerate_variables

    seconds = {}
    rows = {}
    for backend in available_backends():
        manager, (root,) = load_manager(payload, backend=backend)
        rows[backend], seconds[backend] = _timed(
            manager.satisfy_matrix, root, variables
        )
        RECORD.record(
            f"satisfy_matrix pipeline_12 {backend}",
            seconds=seconds[backend],
            rows=len(rows[backend]),
            bdd_nodes=root.node_count(),
        )
    assert rows["array"] == rows["reference"], "identical rows, identical order"
    speedup = seconds["reference"] / seconds["array"]
    RECORD.record("satisfy_matrix pipeline_12 speedup", speedup=round(speedup, 2))
    assert speedup >= ENUMERATION_SPEEDUP, (
        f"array satisfy_matrix is only {speedup:.1f}x faster "
        f"({seconds['reference']:.3f}s -> {seconds['array']:.3f}s); "
        f"the gate is {ENUMERATION_SPEEDUP}x"
    )


# ---------------------------------------------------------------------------
# 2. hard apply: adversarial, little sharing to vectorize over
# ---------------------------------------------------------------------------

def test_hard_apply_is_faster_on_the_array_kernel():
    seconds = {}
    nodes = {}
    for backend in available_backends():
        manager = create_manager(backend=backend)
        left = _inner_product(manager)
        right = _inner_product(manager, shift=5)
        result, seconds[backend] = _timed(manager.apply, "and", left, right)
        nodes[backend] = result.node_count()
        RECORD.record(
            f"apply ip{IP_HALF}-and {backend}",
            seconds=seconds[backend],
            bdd_nodes=nodes[backend],
        )
    assert nodes["array"] == nodes["reference"], "same reduced result"
    speedup = seconds["reference"] / seconds["array"]
    RECORD.record(f"apply ip{IP_HALF}-and speedup", speedup=round(speedup, 2))
    assert speedup >= APPLY_SPEEDUP, (
        f"array apply is only {speedup:.1f}x faster "
        f"({seconds['reference']:.3f}s -> {seconds['array']:.3f}s); "
        f"the gate is {APPLY_SPEEDUP}x"
    )


# ---------------------------------------------------------------------------
# 3. end-to-end sweeps: recorded honestly, no speedup gate
# ---------------------------------------------------------------------------

def test_pipeline_sweeps_record_both_backends():
    for length in (8, 12):
        _components, composition = pipeline_network(length)
        seconds = {}
        for backend in available_backends():
            lts, seconds[backend] = _timed(
                materialize_compiled, composition, max_states=512, backend=backend
            )
            RECORD.record(
                f"pipeline_{length} compile+sweep {backend}",
                seconds=seconds[backend],
                states=lts.state_count(),
                transitions=lts.transition_count(),
            )
        RECORD.record(
            f"pipeline_{length} compile+sweep speedup",
            speedup=round(seconds["reference"] / seconds["array"], 2),
        )
        # no speedup gate — at pipeline_8 the run is dominated by non-BDD
        # work and parity is expected — but the array kernel must never make
        # the end-to-end path pathologically slower
        assert seconds["array"] <= seconds["reference"] * 2 + 0.05, (
            f"array backend regressed the pipeline_{length} sweep: "
            f"{seconds['reference']:.3f}s -> {seconds['array']:.3f}s"
        )
