"""F-CMP — the compiled reaction engine: solve for reactions, don't guess.

Every checker bottoms out in per-state reaction enumeration.  The eager
engine (the interpreter-backed
:class:`~repro.mc.transition.BooleanAbstraction`, materialized) guesses: it
enumerates all ``2·3^n`` candidate activations of an ``n``-input process
per state and runs the full interpreter on each.  The compiled engine
(:mod:`repro.mc.compiled`) solves: the equations are compiled once into a
BDD step relation and each state's admissible reactions are read off by an
output-sensitive satisfying-assignment walk — cost proportional to the
number of *reactions*, not candidates, and zero interpreter calls.

Scenarios pinned here:

1. *The ≥10× acceptance gate* — on a relay pipeline with 8 boolean
   activation inputs, the compiled exploration (compile time included) is
   at least 10× faster than the eager engine, with zero interpreter
   evaluations on the per-state path.
2. *Exponential → output-sensitive transition* — sweeping the input count
   ``n``, the eager cost grows with the ``3^n`` candidate space while the
   compiled cost tracks the (linearly growing) number of admissible
   reactions; the recorded JSON shows the crossover.
3. *Stateful workload* — on a buffer chain (hundreds of reachable states),
   the per-state win repeats at every state and dominates the one-off
   compile cost.
4. *No reordering* — the two largest step relations of the scaling
   families at these sizes (``arbiter_tree(6)``, ``mode_automaton(32)``)
   compile in the structural variable order alone, and the compiled
   non-blocking search on them agrees with the static criterion.

Run with:  pytest benchmarks/bench_compiled.py --benchmark-only
(the timing assertions also run in the plain suite; CI uploads the JSON)
"""

from __future__ import annotations

import time

from _lts import materialize, materialize_compiled
from _record import recorder

from repro.api import Design
from repro.gen.topologies import arbiter_tree, chain_of_buffers, mode_automaton, pipeline_network
from repro.mc.compiled import CompiledAbstraction
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker
from repro.properties.nonblocking import verify_non_blocking
from repro.semantics import interpreter

RECORD = recorder("compiled")

#: the acceptance scenario: ≥ 4 boolean inputs required, 8 provided
ACCEPTANCE_SIZE = 8
#: required end-to-end advantage of the compiled engine on that scenario
ACCEPTANCE_SPEEDUP = 10.0


# ---------------------------------------------------------------------------
# 1. the ≥10× acceptance gate
# ---------------------------------------------------------------------------

def test_compiled_is_10x_faster_with_zero_interpreter_calls():
    _components, composition = pipeline_network(ACCEPTANCE_SIZE)
    boolean_inputs = [
        name for name in composition.inputs if composition.types.get(name) == "bool"
    ]
    assert len(boolean_inputs) >= 4

    start = time.perf_counter()
    eager = materialize(composition, max_states=512)
    eager_seconds = time.perf_counter() - start

    interpreter.reset_evaluation_count()
    start = time.perf_counter()
    compiled = materialize_compiled(composition, max_states=512)
    compiled_seconds = time.perf_counter() - start
    evaluations = interpreter.evaluation_count()

    assert evaluations == 0, "the compiled path must never call the interpreter"
    assert set(eager.states) == set(compiled.states)
    assert {(t.source, t.reaction, t.target) for t in eager.transitions} == {
        (t.source, t.reaction, t.target) for t in compiled.transitions
    }
    RECORD.record(
        f"pipeline_{ACCEPTANCE_SIZE} eager",
        seconds=eager_seconds,
        states=eager.state_count(),
        transitions=eager.transition_count(),
    )
    RECORD.record(
        f"pipeline_{ACCEPTANCE_SIZE} compiled",
        seconds=compiled_seconds,
        states=compiled.state_count(),
        transitions=compiled.transition_count(),
        interpreter_evaluations=evaluations,
    )
    assert compiled_seconds * ACCEPTANCE_SPEEDUP < eager_seconds, (
        f"compiled {compiled_seconds:.4f}s vs eager {eager_seconds:.4f}s "
        f"(need ≥{ACCEPTANCE_SPEEDUP:.0f}×)"
    )


# ---------------------------------------------------------------------------
# 2. exponential → output-sensitive transition over the input count
# ---------------------------------------------------------------------------

def test_input_count_sweep_shows_output_sensitivity():
    """Eager cost follows the 3^n candidate space; compiled cost the reactions.

    The recorded entries make the transition visible across PRs; the
    assertion pins its direction: growing n by two (9× more candidates)
    must grow the eager/compiled advantage.
    """
    advantages = {}
    for size in (4, 6, 8):
        _components, composition = pipeline_network(size)

        start = time.perf_counter()
        eager = materialize(composition, max_states=512)
        eager_seconds = time.perf_counter() - start

        start = time.perf_counter()
        abstraction = CompiledAbstraction(composition)
        compile_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reactions = abstraction.reactions(abstraction.initial_state())
        enumerate_seconds = time.perf_counter() - start

        candidates = 2 * 3 ** size  # the eager engine's per-state guesses
        RECORD.record(
            f"pipeline_{size} per-state",
            seconds=enumerate_seconds,
            bdd_nodes=abstraction.bdd_nodes(),
            eager_seconds=round(eager_seconds, 6),
            compile_seconds=round(compile_seconds, 6),
            candidates=candidates,
            reactions=len(reactions),
        )
        assert len(reactions) == eager.transition_count()
        advantages[size] = eager_seconds / max(
            compile_seconds + enumerate_seconds, 1e-9
        )
    assert advantages[8] > advantages[6] > 1.0, advantages


# ---------------------------------------------------------------------------
# 3. stateful workload: the per-state win repeats at every state
# ---------------------------------------------------------------------------

def test_stateful_workload_amortizes_compilation():
    _components, composition = chain_of_buffers(4)

    start = time.perf_counter()
    eager = materialize(composition, max_states=512)
    eager_seconds = time.perf_counter() - start

    start = time.perf_counter()
    compiled = materialize_compiled(composition, max_states=512)
    compiled_seconds = time.perf_counter() - start

    assert set(eager.states) == set(compiled.states)
    assert eager.state_count() > 100  # a genuinely stateful exploration
    RECORD.record(
        "buffer_chain_4 eager", seconds=eager_seconds, states=eager.state_count()
    )
    RECORD.record(
        "buffer_chain_4 compiled", seconds=compiled_seconds, states=compiled.state_count()
    )
    assert compiled_seconds < eager_seconds, (
        f"compiled {compiled_seconds:.3f}s vs eager {eager_seconds:.3f}s"
    )


# ---------------------------------------------------------------------------
# 4. large step relations compile without dynamic reordering
# ---------------------------------------------------------------------------

#: compile seconds when relations past 2,048 nodes were sifted (2 vCPU,
#: Python 3.11.7); the structural order alone compiles each in under 0.1 s
SIFTED_COMPILE_SECONDS = {"arbiter_tree_6": 1.3, "mode_automaton_32": 0.88}


def test_large_compositions_compile_without_reordering():
    for name, (components, composition) in (
        ("arbiter_tree_6", arbiter_tree(6)),
        ("mode_automaton_32", mode_automaton(32)),
    ):
        start = time.perf_counter()
        abstraction = CompiledAbstraction(composition)
        compile_seconds = time.perf_counter() - start
        assert abstraction.manager.stats()["reorder_runs"] == 0, name

        start = time.perf_counter()
        compiled = verify_non_blocking(
            composition,
            checker=OnTheFlyChecker(LazyReactionLTS(composition, abstraction=abstraction), 4096),
        )
        search_seconds = time.perf_counter() - start
        static = Design(name=name, components=list(components)).verify(
            "non-blocking", "static", max_states=4096
        )
        assert compiled.holds == static.holds, name
        RECORD.record(
            f"{name} compile",
            seconds=compile_seconds,
            bdd_nodes=abstraction.bdd_nodes(),
            states=compiled.cost.states,
            search_seconds=round(search_seconds, 6),
            holds=bool(compiled.holds),
            parent_seconds=SIFTED_COMPILE_SECONDS[name],
        )


def test_compiled_bench_probe(benchmark):
    """pytest-benchmark probe: compile + explore the acceptance pipeline."""
    _components, composition = pipeline_network(ACCEPTANCE_SIZE)

    def explore():
        return materialize_compiled(composition, max_states=512)

    lts = benchmark(explore)
    assert lts.transition_count() > 0
