"""The structural BDD variable order of :mod:`repro.clocks.order`.

The order decides how large the BDDs get, never what they mean.  This suite
pins both halves:

* **shape** — components in DFS order over the signal-sharing graph (a
  closed ring too), a chain laid out link by link however deep, each
  signal's variables contiguous, registers right after their signal, and
  the order declared into every manager that builds from it: the session
  manager before any analysis, a standalone clock algebra's, the symbolic
  product's;
* **order invariance** — the oracle that node identity is canonical under
  any fixed order: for corpus and sampled processes, the rule-2 clock
  classes, ``is_well_clocked``, the compiled reaction set at every explored
  state and the static and compiled verdicts are identical under the
  structural order and under a random permutation of the declared
  variables;
* **hash-seed independence** — the order and the compiled relation's dump
  are the same under ``PYTHONHASHSEED=0`` and ``1``;
* **stored relations** — a compiled payload in the format written before
  the structural order is a store miss and is recomputed, never misread,
  and the context's digest, the store key, is the printer's digest.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import AnalysisContext, Design
from repro.bdd.bdd import BDDManager
from repro.clocks.algebra import clock_variables
from repro.clocks.expressions import clock_key
from repro.clocks.order import VariableOrder, structural_order
from repro.gen.corpus import Corpus
from repro.gen.topologies import (
    arbiter_tree,
    chain_of_buffers,
    mode_automaton,
    sample_design,
    token_ring,
)
from repro.lang.builder import ProcessBuilder, signal
from repro.lang.normalize import normalize
from repro.lang.printer import process_digest
from repro.mc.compiled import CompiledAbstraction
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker
from repro.mc.symbolic import (
    current_variable,
    event_variable,
    next_variable,
    symbolic_variables,
    value_variable,
)
from repro.properties.compilable import ProcessAnalysis
from repro.properties.weak_endochrony import verify_weak_endochrony
from repro.service.store import ArtifactStore

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- shape ------------------------------------------------------------------------------
def test_arbiter_tree_orders_each_arbiter_before_its_subtrees():
    components, _composition = arbiter_tree(3)
    signals = structural_order(components).signals
    assert signals.index("g0_0") < 7, "the root arbiter, whose output no one reads, comes first"
    position = {name: index for index, name in enumerate(signals)}
    # depth first: a parent before its children, and each subtree (its
    # selectors and its requests) in one block
    for parent, children in (("s0_0", ("s1_0", "s1_1")), ("s1_0", ("s2_0", "s2_1"))):
        assert all(position[parent] < position[child] for child in children)
    left = [position[name] for name in ("s1_0", "s2_0", "s2_1", "r0", "r3")]
    right = [position[name] for name in ("s1_1", "s2_2", "s2_3", "r4", "r7")]
    assert max(left) < min(right) or max(right) < min(left)
    assert len(set(signals)) == len(signals)


def test_every_signal_once_and_registers_next_to_their_signal():
    components, composition = chain_of_buffers(3)
    order = structural_order(components)
    assert sorted(order.signals) == sorted(composition.all_signals())
    variables = symbolic_variables(order)
    assert len(variables) == len(set(variables))
    for register in order.registers:
        at = variables.index(value_variable(register))
        assert variables[at + 1 : at + 3] == (
            current_variable(register),
            next_variable(register),
        )
    for name in order.signals:
        presence = variables.index(event_variable(name))
        if name in order.booleans:
            assert variables[presence + 1] == value_variable(name)


def test_mode_automaton_keeps_each_mode_bit_next_to_its_output():
    """Registers are leaves of the fan-in search, so the rotating bits are
    not chained together: each output sits next to the bit it samples."""
    components, _composition = mode_automaton(6)
    signals = structural_order(components).signals
    position = {name: index for index, name in enumerate(signals)}
    for mode in range(6):
        assert abs(position[f"modes_y{mode}"] - position[f"modes_m{mode}"]) <= 3


def test_a_standalone_process_is_the_one_component_case():
    _components, composition = chain_of_buffers(2)
    context = AnalysisContext()
    assert context.variable_order([composition]) == structural_order([composition])
    assert context.variable_order([composition]) is context.variable_order([composition])


def test_the_design_declares_its_order_before_any_analysis():
    components, _composition = arbiter_tree(2)
    design = Design(name="arbiter_2", components=list(components))
    order = design.context.variable_order(design.components)
    # a leaf arbiter analysed first, straight through the lazy analyses:
    # the session manager still gets the whole design's order
    assert design.component_analyses()[-1].is_well_clocked()
    assert design.context.manager.variables() == clock_variables(order)
    assert design.verify("non-blocking", "static").holds
    assert design.context.manager.variables() == clock_variables(order)
    assert design.verify("non-blocking", "symbolic").holds
    assert design.context.manager.variables() == (
        clock_variables(order) + symbolic_variables(order)
    )


def test_compiled_queries_build_no_hierarchy():
    components, _composition = chain_of_buffers(3)
    design = Design(name="buffers_3", components=list(components))
    assert design.verify("non-blocking", "compiled").holds
    stages = design.context.graph.counters
    assert "hierarchy" not in stages and "analysis" not in stages
    assert stages["compiled"]["computed"] == 3


def test_variables_name_each_signal_contiguously_in_signal_order():
    order = VariableOrder(signals=("b", "a", "r"), booleans=("a", "r"), registers=("r",))
    presence, value = "p·{}".format, "v·{}".format
    registers = ("s·{}".format, "n·{}".format)
    assert order.variables(presence, value, registers) == (
        "p·b", "p·a", "v·a", "p·r", "v·r", "s·r", "n·r",
    )
    # without register namings a register is just a boolean signal
    assert order.variables(presence, value) == ("p·b", "p·a", "v·a", "p·r", "v·r")


def test_a_closed_ring_is_searched_from_its_first_station_along_the_reads():
    """No station's output is unread, so the search starts at the first
    station and follows each read to the station that defines it."""
    components, composition = token_ring(4)
    signals = structural_order(components).signals
    assert sorted(signals) == sorted(composition.all_signals())
    activations = [name for name in signals if name.startswith("c")]
    assert activations == ["c0", "c3", "c2", "c1"]


def test_a_chain_deeper_than_the_recursion_limit_is_laid_out_link_by_link():
    length = 3 * sys.getrecursionlimit()
    builder = ProcessBuilder("chain", inputs=["x0"], outputs=[f"x{length}"])
    for index in range(length):
        builder.define(f"x{index + 1}", signal(f"x{index}") + 1)
    order = structural_order([normalize(builder.build())])
    assert order.signals == tuple(f"x{index}" for index in range(length + 1))
    assert order.booleans == () and order.registers == ()


# -- order invariance -------------------------------------------------------------------
def _pool():
    processes = []
    for entry in Corpus.load(REPO_ROOT / "corpus" / "corpus.json").entries[:20]:
        generated = entry.regenerate()
        processes.extend((*generated.components, generated.composition))
    for seed in range(3000, 3010):
        generated = sample_design(seed)
        processes.extend((*generated.components, generated.composition))
    return processes


_POOL = _pool()


def _classes(analysis):
    return {
        frozenset(clock_key(member) for member in clock_class.members)
        for clock_class in analysis.hierarchy.classes
    }


def _static(process, manager):
    design = Design.from_process(process, context=AnalysisContext(manager=manager))
    return [
        design.verify(prop, "static").holds for prop in ("non-blocking", "weak-endochrony")
    ]


def _compiled_verdicts(process, abstraction):
    def checker():
        return OnTheFlyChecker(LazyReactionLTS(process, abstraction=abstraction), 512)

    weak = verify_weak_endochrony(process, checker=checker(), method="explicit")
    return checker().is_non_blocking().holds, weak.holds


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=len(_POOL) - 1), st.integers(min_value=0))
def test_analyses_and_verdicts_are_invariant_under_a_random_order(index, seed):
    process = _POOL[index]
    rng = random.Random(seed)
    structural = structural_order([process])

    # the clock algebra: every p·x / v·x variable permuted
    shuffled = list(clock_variables(structural))
    rng.shuffle(shuffled)
    reference = ProcessAnalysis(process)
    permuted = ProcessAnalysis(process, manager=BDDManager(shuffled))
    assert permuted.algebra.manager.variables() == tuple(shuffled)
    assert _classes(permuted) == _classes(reference)
    assert permuted.is_well_clocked() == reference.is_well_clocked()
    assert _static(process, BDDManager(shuffled)) == _static(process, BDDManager())

    # the compiled relation: every e·x / d·x / s·r / s'·r variable permuted
    compiled = CompiledAbstraction.try_compile(process)
    if compiled is None:
        return
    reordered = CompiledAbstraction(process)
    variables = list(reordered.manager.variables())
    rng.shuffle(variables)
    (reordered.step,) = reordered.manager.reorder(variables, [reordered.step])
    assert reordered.manager.variables() == tuple(variables)
    lts = OnTheFlyChecker(LazyReactionLTS(process, abstraction=compiled), 512).materialize()
    for state in lts.states:
        assert set(reordered.reactions(state)) == set(compiled.reactions(state))
    assert _compiled_verdicts(process, reordered) == _compiled_verdicts(process, compiled)


def test_a_standalone_clock_algebra_gets_the_process_order():
    for process in _POOL[:40]:
        analysis = ProcessAnalysis(process)
        assert analysis.algebra.manager.variables() == clock_variables(
            structural_order([process])
        )


# -- hash-seed independence -------------------------------------------------------------
_HASH_SEED_SCRIPT = """
import json
from repro.api.session import Design
from repro.gen.topologies import arbiter_tree, chain_of_buffers, mode_automaton
out = {}
for name, (components, _composition) in (
    ("arbiter_3", arbiter_tree(3)),
    ("buffers_3", chain_of_buffers(3)),
    ("modes_4", mode_automaton(4)),
):
    design = Design(name=name, components=list(components))
    design.verify("non-blocking", "static")
    order = design.context.variable_order(design.components)
    compiled = design.context.compiled(design.composition)
    out[name] = {
        "order": [order.signals, order.booleans, order.registers],
        "step": compiled.manager.dump([compiled.step]),
        "session": design.context.manager.variables(),
    }
print(json.dumps(out, sort_keys=True))
"""


def _run_with_hash_seed(seed: str) -> str:
    environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT],
        env=environment,
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def test_order_and_compiled_dump_ignore_the_hash_seed():
    first, second = _run_with_hash_seed("0"), _run_with_hash_seed("1")
    assert "g0_0" in json.loads(first)["arbiter_3"]["order"][0][:7]
    assert first == second


# -- stored relations -------------------------------------------------------------------
def test_a_payload_in_the_previous_format_is_a_miss_and_recomputed(tmp_path):
    _components, composition = chain_of_buffers(2)
    store = ArtifactStore(tmp_path / "store")
    context = AnalysisContext(artifact_cache=store)
    digest = context.digest_of(composition)
    fresh = CompiledAbstraction(composition).to_payload()
    assert fresh["format"] == CompiledAbstraction.PAYLOAD_FORMAT == 2

    # the format-1 relation: same function, declared in another order
    previous = CompiledAbstraction(composition)
    reversed_order = list(reversed(previous.manager.variables()))
    (previous.step,) = previous.manager.reorder(reversed_order, [previous.step])
    stale = {**previous.to_payload(), "format": 1}
    store.put(
        digest,
        "compiled",
        {"compilable": True, "process": composition.name, "abstraction": stale},
    )

    loaded = context.compiled(composition)
    counters = context.graph.counters["compiled"]
    assert counters["invalid"] == 1 and counters["store_hits"] == 0
    assert counters["computed"] == 1
    assert loaded.to_payload() == fresh
    # the recomputed relation replaced the stale object in the store
    assert store.get(digest, "compiled")["abstraction"]["format"] == 2


def test_a_negative_answer_in_the_previous_format_is_recomputed(tmp_path):
    _components, composition = chain_of_buffers(1)
    store = ArtifactStore(tmp_path / "store")
    context = AnalysisContext(artifact_cache=store)
    store.put(
        context.digest_of(composition),
        "compiled",
        {"compilable": False, "format": 1, "process": composition.name, "obstacles": []},
    )
    assert context.compiled(composition) is not None
    assert context.graph.counters["compiled"]["invalid"] == 1


def test_the_context_digest_is_the_printer_digest():
    """The store keys a relation by ``AnalysisContext.digest_of``, which
    hashes the memoized canonical form: the bytes must be the printer's."""
    context = AnalysisContext()
    for process in _POOL:
        assert context.digest_of(process) == process_digest(process)
