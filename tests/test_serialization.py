"""Round trips for the persistence layer under :mod:`repro.service`.

Four surfaces, each JSON-safe end to end:

* ``Verdict`` / ``Diagnostic`` / ``Cost`` ``to_dict`` / ``from_dict``;
* ``BDDManager.dump`` / ``load`` (graph isomorphism and function equality);
* ``CompiledAbstraction.to_payload`` / ``from_payload`` — the reloaded
  engine must produce byte-identical ``reactions(state)`` on every
  reachable state of real library processes, and refuse payloads whose
  content digest does not match;
* the canonical printed form and its digest — stable under parse ∘ print,
  equation reordering, component reordering and local renaming (the
  property content-addressing relies on), pinned with hypothesis; the
  α-renaming behind it equals the one-render-per-round reference on
  generated processes and renders each equation at most twice.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.results import Cost, Diagnostic, Verdict
from repro.bdd.bdd import BDDManager
from repro.lang import printer
from repro.lang.ast import ClockBinary, ClockFalse, ClockOf, ClockTrue, Const
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
from repro.lang.normalize import (
    ClockEquation,
    DelayEquation,
    FunctionEquation,
    MergeEquation,
    NormalizedProcess,
    SamplingEquation,
    infer_types,
    normalize,
    rename_equation,
)
from repro.lang.parser import parse_process
from repro.lang.printer import (
    _canonical_local_renaming,
    canonical_digest,
    format_canonical,
    format_primitive_equation,
    format_process,
    process_digest,
)
from repro.library import basic, ltta, producer_consumer
from repro.gen.topologies import chain_of_buffers, derivative_chain, pipeline_network
from repro.mc.compiled import CompiledAbstraction, compiled_from_artifact
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker


# ---------------------------------------------------------------------------
# Verdict / Diagnostic / Cost
# ---------------------------------------------------------------------------

def test_verdict_round_trip_preserves_everything_but_the_report():
    verdict = Verdict(
        prop="weak-endochrony",
        subject="pipeline_4",
        holds=False,
        method="compiled",
        diagnostics=[
            Diagnostic("axiom-1", True, "fine"),
            Diagnostic("axiom-2", False, "clash", witness={"state": [1, 0]}),
        ],
        cost=Cost(seconds=0.25, states=12, transitions=30, state_bound=512, bdd_nodes=7),
        report=object(),  # deliberately unserializable
    )
    payload = json.loads(json.dumps(verdict.to_dict()))
    restored = Verdict.from_dict(payload)
    assert restored.prop == verdict.prop
    assert restored.subject == verdict.subject
    assert restored.holds == verdict.holds
    assert restored.method == verdict.method
    assert restored.cost == verdict.cost
    assert [d.name for d in restored.diagnostics] == ["axiom-1", "axiom-2"]
    assert restored.diagnostics[1].witness == {"state": [1, 0]}
    assert restored.report is None
    assert bool(restored) == bool(verdict)
    assert restored.failures()[0].name == "axiom-2"


def test_non_json_witness_becomes_its_repr():
    class Opaque:
        def __repr__(self):
            return "<opaque witness>"

    diagnostic = Diagnostic("check", False, witness=Opaque())
    payload = json.loads(json.dumps(diagnostic.to_dict()))
    assert payload["witness"] == "<opaque witness>"
    assert Diagnostic.from_dict(payload).witness == "<opaque witness>"


def test_live_verdict_is_json_safe():
    """A verdict straight from the pipeline survives json.dumps unchanged."""
    from repro.api.session import Design

    components, _ = chain_of_buffers(2)
    verdict = Design(name="chain", components=components).verify(
        "non-blocking", method="compiled"
    )
    payload = json.loads(json.dumps(verdict.to_dict()))
    assert payload["holds"] == verdict.holds
    assert Verdict.from_dict(payload).cost.seconds == pytest.approx(verdict.cost.seconds)


# ---------------------------------------------------------------------------
# BDDManager dump / load
# ---------------------------------------------------------------------------

def _assignments(names):
    if not names:
        yield {}
        return
    head, *tail = names
    for rest in _assignments(tail):
        yield {head: False, **rest}
        yield {head: True, **rest}


def test_bdd_dump_load_preserves_functions():
    manager = BDDManager(["a", "b", "c", "d"])
    a, b, c, d = (manager.var(n) for n in "abcd")
    roots = [(a & b) | (~c & d), a.iff(d) ^ (b & ~c), manager.true, manager.false]
    payload = json.loads(json.dumps(manager.dump(roots)))
    loaded_manager, loaded_roots = BDDManager.load(payload)
    assert loaded_manager.variables() == manager.variables()
    for original, loaded in zip(roots, loaded_roots):
        assert loaded.node_count() == original.node_count()
        for assignment in _assignments(["a", "b", "c", "d"]):
            assert loaded.evaluate(assignment) == original.evaluate(assignment)


def test_bdd_dump_serializes_only_reachable_nodes():
    manager = BDDManager(["a", "b", "c"])
    a, b, c = (manager.var(n) for n in "abc")
    _scratch = (a ^ b) | c  # dead after this line
    keep = a & b
    payload = manager.dump([keep])
    assert len(payload["nodes"]) == keep.node_count()


def test_bdd_load_rejects_corrupt_payloads():
    manager = BDDManager(["a", "b"])
    payload = manager.dump([manager.var("a") & manager.var("b")])
    broken = json.loads(json.dumps(payload))
    broken["nodes"][0][1] = 99  # child index pointing past its parent
    with pytest.raises(ValueError, match="corrupt"):
        BDDManager.load(broken)
    broken_root = json.loads(json.dumps(payload))
    broken_root["roots"] = [4096]
    with pytest.raises(ValueError, match="out of range"):
        BDDManager.load(broken_root)


# ---------------------------------------------------------------------------
# CompiledAbstraction payload round trips
# ---------------------------------------------------------------------------

def _reachable_reactions(abstraction, max_states=256):
    """state -> set of (reaction, successor), explored to a bound."""
    lazy = LazyReactionLTS(abstraction.process, abstraction=abstraction)
    checker = OnTheFlyChecker(lazy, max_states=max_states)
    table = {}
    for state in checker.iter_states():
        table[state] = set(lazy.successors(state))
    return table


@pytest.mark.parametrize(
    "name, build",
    [
        ("buffer", lambda: normalize(basic.buffer_process())),
        ("filter", lambda: normalize(basic.filter_process())),
        ("merge", lambda: normalize(basic.merge_process())),
        ("bus", lambda: normalize(ltta.bus_process(), ltta.registry())),
        ("pipeline_4", lambda: pipeline_network(4)[1]),
        ("buffer_chain_3", lambda: chain_of_buffers(3)[1]),
    ],
)
def test_compiled_payload_round_trip_preserves_reactions(name, build):
    process = build()
    abstraction = CompiledAbstraction(process)
    payload = json.loads(json.dumps(abstraction.to_payload()))
    loaded = CompiledAbstraction.from_payload(process, payload)
    assert loaded.initial_state() == abstraction.initial_state()
    original = _reachable_reactions(abstraction)
    reloaded = _reachable_reactions(loaded)
    assert original == reloaded
    assert loaded.bdd_nodes() == abstraction.bdd_nodes()


def test_compiled_payload_refuses_the_wrong_process():
    buffer = normalize(basic.buffer_process())
    merge = normalize(basic.merge_process())
    payload = CompiledAbstraction(buffer).to_payload()
    with pytest.raises(ValueError, match="digest"):
        CompiledAbstraction.from_payload(merge, payload)
    with pytest.raises(ValueError, match="format"):
        CompiledAbstraction.from_payload(buffer, {**payload, "format": 999})


def test_compiled_payload_round_trip_in_the_fallback_fragment():
    """Processes outside the fragment have no relation to persist — the
    store keeps the negative answer and the interpreter path still runs."""
    import tempfile

    from repro.api.session import Design
    from repro.mc.compiled import compilation_obstacles
    from repro.service.store import ArtifactStore

    builder = ProcessBuilder("cmp", inputs=["x"], outputs=["b"])
    builder.define("b", signal("x").lt(const(3)))
    process = normalize(builder.build())
    assert compilation_obstacles(process)

    store = ArtifactStore(tempfile.mkdtemp())
    writer = _context_over(store)
    assert writer.compiled(process) is None  # computed, persisted negative
    payload = store.get(process_digest(process), "compiled")
    assert compiled_from_artifact(process, payload) is None
    assert payload["compilable"] is False
    assert payload["obstacles"]

    # a negative answer from an older payload format is a miss (the fragment
    # may have widened since), not a permanent pin to the interpreter
    stale = dict(payload, format=-1)
    with pytest.raises(ValueError, match="format"):
        compiled_from_artifact(process, stale)
    store.put(process_digest(process), "compiled", stale)
    reader = _context_over(store)
    assert reader.compiled(process) is None
    counters = reader.graph.stats()["stages"]["compiled"]
    assert (counters["invalid"], counters["computed"]) == (1, 1)

    # a session over the store (the recompute healed the object) serves the
    # negative answer without recompiling
    design = Design.from_process(process)
    design.context.artifact_cache = store
    assert design.context.compiled(process) is None
    assert design.context.graph.stats()["stages"]["compiled"]["store_hits"] == 1
    verdict = design.verify("non-blocking", method="compiled")
    assert verdict.method == "explicit"  # honest labeling: interpreter ran
    fresh = Design.from_process(process).verify("non-blocking", method="explicit")
    assert verdict.holds == fresh.holds


# ---------------------------------------------------------------------------
# Canonical form and digests
# ---------------------------------------------------------------------------

LIBRARY_PROCESSES = {
    "filter": basic.filter_process,
    "merge": basic.merge_process,
    "buffer": basic.buffer_process,
    "buffer2": basic.buffer2_process,
    "producer": producer_consumer.producer_process,
    "writer": ltta.writer_process,
    "bus": ltta.bus_process,
    "reader": ltta.reader_process,
}


def _library_registry():
    registry = {}
    registry.update(producer_consumer.registry())
    registry.update(ltta.registry())
    return registry


@pytest.mark.parametrize("name", sorted(LIBRARY_PROCESSES))
def test_parse_print_is_digest_stable_on_the_library(name):
    registry = _library_registry()
    original = normalize(LIBRARY_PROCESSES[name](), registry)
    reparsed = normalize(
        parse_process(format_process(LIBRARY_PROCESSES[name]())), registry
    )
    assert format_canonical(reparsed) == format_canonical(original)
    assert process_digest(reparsed) == process_digest(original)


def test_digest_ignores_equation_and_component_order():
    first = ProcessBuilder("p", inputs=["a", "b"], outputs=["x", "y"])
    first.define("x", signal("a").and_(signal("b")))
    first.define("y", signal("a").or_(signal("b")))
    second = ProcessBuilder("p", inputs=["b", "a"], outputs=["y", "x"])
    second.define("y", signal("a").or_(signal("b")))
    second.define("x", signal("a").and_(signal("b")))
    assert process_digest(normalize(first.build())) == process_digest(
        normalize(second.build())
    )

    components, _ = chain_of_buffers(3)
    assert canonical_digest(components) == canonical_digest(list(reversed(components)))


def test_digest_distinguishes_different_semantics():
    left = ProcessBuilder("p", inputs=["a", "b"], outputs=["x"])
    left.define("x", signal("a").and_(signal("b")))
    right = ProcessBuilder("p", inputs=["a", "b"], outputs=["x"])
    right.define("x", signal("a").or_(signal("b")))
    assert process_digest(normalize(left.build())) != process_digest(
        normalize(right.build())
    )


def test_digest_stable_under_reorder_with_multiple_hidden_locals():
    """Equation order must not leak into the α-renaming of hidden locals."""
    one = ProcessBuilder("p", inputs=["a", "b"], outputs=["y"]).local("t1", "t2")
    one.define("t1", signal("a").when(signal("a")))
    one.define("t2", signal("b").when(signal("b")))
    one.define("y", signal("t1").default(signal("t2")))
    other = ProcessBuilder("p", inputs=["a", "b"], outputs=["y"]).local("t1", "t2")
    other.define("t2", signal("b").when(signal("b")))
    other.define("t1", signal("a").when(signal("a")))
    other.define("y", signal("t1").default(signal("t2")))
    assert format_canonical(normalize(one.build())) == format_canonical(
        normalize(other.build())
    )
    assert process_digest(normalize(one.build())) == process_digest(
        normalize(other.build())
    )


def test_compiled_payload_refuses_alpha_variants():
    """Same digest, different local spellings: the relation names concrete
    signals, so an α-variant must recompile instead of adopting it."""
    one = ProcessBuilder("p", inputs=["a"], outputs=["y"]).local("locu")
    one.define("locu", signal("a").when(signal("a")))
    one.define("y", signal("locu").default(signal("a")))
    other = ProcessBuilder("p", inputs=["a"], outputs=["y"]).local("locw")
    other.define("locw", signal("a").when(signal("a")))
    other.define("y", signal("locw").default(signal("a")))
    first, second = normalize(one.build()), normalize(other.build())
    assert process_digest(first) == process_digest(second)  # α-equivalent
    payload = CompiledAbstraction(first).to_payload()
    with pytest.raises(ValueError, match="variant"):
        CompiledAbstraction.from_payload(second, payload)

    # through the store: the mismatch is a miss, the variant recompiles
    import tempfile

    from repro.service.store import ArtifactStore

    store = ArtifactStore(tempfile.mkdtemp())
    assert _context_over(store).compiled(first) is not None
    payload = store.get(process_digest(first), "compiled")
    with pytest.raises(ValueError, match="variant"):
        compiled_from_artifact(second, payload)
    variant = _context_over(store)
    recompiled = variant.compiled(second)
    counters = variant.graph.stats()["stages"]["compiled"]
    assert (counters["invalid"], counters["computed"]) == (1, 1)
    assert recompiled._signals == second.all_signals()
    loaded = compiled_from_artifact(first, payload)
    assert loaded._signals == first.all_signals()


def _context_over(store):
    """A fresh session context whose persistent tier is ``store``."""
    from repro.api.session import AnalysisContext

    context = AnalysisContext()
    context.artifact_cache = store
    return context


def test_bdd_load_rejects_unordered_levels_and_duplicates():
    manager = BDDManager(["a", "b"])
    payload = manager.dump([manager.var("a") & manager.var("b")])
    unordered = json.loads(json.dumps(payload))
    # give the parent the same level as its child: violates ordering
    levels = [node[0] for node in unordered["nodes"]]
    if len(unordered["nodes"]) >= 2:
        unordered["nodes"][-1][0] = max(levels)
        with pytest.raises(ValueError, match="precede"):
            BDDManager.load(unordered)
    duplicated = json.loads(json.dumps(payload))
    duplicated["nodes"].append(list(duplicated["nodes"][-1]))
    with pytest.raises(ValueError, match="duplicate|precede|corrupt"):
        BDDManager.load(duplicated)


def test_renamed_locals_cannot_collide_with_real_signals():
    """A process with an input literally named like a canonical local must
    not digest-collide with a self-referential variant."""
    aliased = ProcessBuilder("p", inputs=["x", "_l0"], outputs=["y"]).local("h")
    aliased.define("h", signal("x").when(signal("_l0")))
    aliased.define("y", signal("h").when(signal("x")))
    looped = ProcessBuilder("p", inputs=["x", "_l0"], outputs=["y"]).local("h")
    looped.define("h", signal("x").when(signal("h")))
    looped.define("y", signal("h").when(signal("x")))
    assert format_canonical(normalize(aliased.build())) != format_canonical(
        normalize(looped.build())
    )
    assert process_digest(normalize(aliased.build())) != process_digest(
        normalize(looped.build())
    )


def test_digest_stable_under_reorder_of_mutually_referencing_locals():
    """Locals that reference each other must be ranked by content, not by
    the order their equations happened to be listed in."""

    def build(reorder: bool):
        builder = ProcessBuilder("p", inputs=["x"], outputs=["y"]).local("a", "b")
        equations = [
            ("a", signal("x").when(signal("b"))),
            ("b", signal("x").when(signal("a"))),
        ]
        if reorder:
            equations.reverse()
        for target, expression in equations:
            builder.define(target, expression)
        builder.define("y", signal("a").when(signal("x")))
        return normalize(builder.build())

    assert format_canonical(build(False)) == format_canonical(build(True))
    assert process_digest(build(False)) == process_digest(build(True))


def test_canonical_form_renames_generated_locals():
    """The same computation built with different intermediate names prints
    to identical canonical bytes (generated locals are α-renamed)."""
    one = ProcessBuilder("p", inputs=["a", "b"], outputs=["y"]).local("u")
    one.define("u", signal("a").and_(signal("b")))
    one.define("y", signal("u").or_(signal("a")))
    other = ProcessBuilder("p", inputs=["a", "b"], outputs=["y"]).local("v")
    other.define("v", signal("a").and_(signal("b")))
    other.define("y", signal("v").or_(signal("a")))
    assert format_canonical(normalize(one.build())) == format_canonical(
        normalize(other.build())
    )


# -- hypothesis: random boolean processes stay digest-stable ---------------------

_VARIABLES = ("a", "b", "c")


@st.composite
def _boolean_expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return signal(draw(st.sampled_from(_VARIABLES)))
    operator = draw(st.sampled_from(["and", "or", "xor", "not"]))
    left = draw(_boolean_expressions(depth=depth - 1))
    if operator == "not":
        return left.not_()
    right = draw(_boolean_expressions(depth=depth - 1))
    if operator == "and":
        return left.and_(right)
    if operator == "or":
        return left.or_(right)
    return left.ne(right)  # boolean '/=' is xor


@st.composite
def _random_processes(draw):
    builder = ProcessBuilder("rand", inputs=list(_VARIABLES), outputs=["y", "z"])
    builder.define("y", draw(_boolean_expressions()))
    builder.define("z", draw(_boolean_expressions()))
    if draw(st.booleans()):
        builder.constrain(tick("y"), when_true("a"))
    return builder.build()


@settings(max_examples=40, deadline=None)
@given(_random_processes())
def test_parse_print_is_digest_stable_on_random_processes(definition):
    original = normalize(definition)
    reparsed = normalize(parse_process(format_process(definition)))
    assert process_digest(reparsed) == process_digest(original)


# -- the α-renaming against the quadratic-round reference --------------------------

def _reference_local_renaming(process):
    """The renaming as it was before each round became linear (every round
    renames and renders every occurrence again); kept as the reference."""
    interface = set(process.inputs) | set(process.outputs)
    hidden = set(process.locals) - interface
    if not hidden:
        return {}
    rank = {name: 0 for name in hidden}
    for _round in range(len(hidden) + 2):
        signatures = {}
        for name in hidden:
            marking = {
                other: ("\x00self" if other == name else f"\x00c{rank[other]}")
                for other in hidden
            }
            signatures[name] = sorted(
                format_primitive_equation(rename_equation(equation, marking))
                for equation in process.equations
                if name in equation.signals()
            )
        ordered = sorted(hidden, key=lambda name: (rank[name], signatures[name]))
        refined = {}
        previous_key = None
        next_rank = -1
        for name in ordered:
            key = (rank[name], signatures[name])
            if key != previous_key:
                next_rank += 1
                previous_key = key
            refined[name] = next_rank
        if refined == rank:
            break
        rank = refined
    # distinct final names per local; classes that refinement could not
    # split are tie-broken by original spelling (see the docstring caveat)
    ordered = sorted(hidden, key=lambda name: (rank[name], name))
    return {name: f"\x00l{position}" for position, name in enumerate(ordered)}


def _reference_canonical(process):
    """The canonical form rendered from the reference renaming."""
    renaming = _reference_local_renaming(process)
    equations = (
        [rename_equation(equation, renaming) for equation in process.equations]
        if renaming
        else list(process.equations)
    )
    rendered = sorted(format_primitive_equation(equation) for equation in equations)
    signals = sorted(
        {renaming.get(name, name) for name in process.all_signals()}
        | set(process.inputs)
        | set(process.outputs)
    )
    types = {
        renaming.get(name, name): kind for name, kind in process.types.items()
    }
    lines = [
        f"process {process.name}",
        f"inputs: {', '.join(sorted(process.inputs))}",
        f"outputs: {', '.join(sorted(process.outputs))}",
        "types: " + ", ".join(name + ":" + types.get(name, "any") for name in signals),
        "equations:",
    ]
    lines.extend(f"  {line}" for line in rendered)
    return "\n".join(lines) + "\n"


_INPUTS = ("i0", "i1")
_CONSTANTS = st.sampled_from([Const(0), Const(1), Const(True), Const(False), Const(2.5)])


@st.composite
def _local_blocks(draw, fresh):
    """Equations over fresh hidden locals: a chain, tied copies of one shape,
    a mutually referencing pair, repeated and self references, or clock
    equations over hidden signals."""
    kind = draw(st.sampled_from(["chain", "tied", "mutual", "repeated", "clocks"]))
    source = draw(st.sampled_from(_INPUTS))
    if kind == "chain":
        # a derivative chain: each stage reads its predecessor and its delay
        previous, equations = fresh(), []
        equations.append(FunctionEquation(previous, "+", (draw(_CONSTANTS), source)))
        for _stage in range(draw(st.integers(1, 10))):
            delayed, stage = fresh(), fresh()
            equations.append(DelayEquation(delayed, previous, draw(_CONSTANTS).value))
            equations.append(FunctionEquation(stage, "-", (previous, delayed)))
            previous = stage
        return equations, previous
    if kind == "tied":
        # identical shapes over distinct locals: refinement cannot split them
        ends, equations = [], []
        for _copy in range(draw(st.integers(2, 4))):
            sampled, merged = fresh(), fresh()
            equations.append(SamplingEquation(sampled, draw(_CONSTANTS), "i1"))
            equations.append(MergeEquation(merged, sampled, source))
            ends.append(merged)
        combined = fresh()
        equations.append(FunctionEquation(combined, "and", (ends[0], ends[-1])))
        return equations, combined
    if kind == "mutual":
        first, second = fresh(), fresh()
        return [
            SamplingEquation(first, source, second),
            SamplingEquation(second, source, first),
            ClockEquation(ClockOf(first), ClockOf(second)),
        ], first
    if kind == "repeated":
        # a local read twice by one equation, and one that reads itself
        sampled, doubled, looped = fresh(), fresh(), fresh()
        return [
            SamplingEquation(sampled, source, "i1"),
            FunctionEquation(doubled, "+", (sampled, sampled)),
            DelayEquation(looped, looped, draw(_CONSTANTS).value),
            SamplingEquation(looped, doubled, doubled),
        ], looped
    flag, other = fresh(), fresh()
    return [
        FunctionEquation(flag, "not", (source,)),
        FunctionEquation(other, "id", (draw(_CONSTANTS),)),
        ClockEquation(ClockOf(other), ClockBinary("or", ClockTrue(flag), ClockFalse(flag))),
        ClockEquation(ClockOf(flag), ClockOf(source)),
    ], other


@st.composite
def _hidden_local_processes(draw):
    counter = []

    def fresh():
        counter.append(f"L{len(counter)}")
        return counter[-1]

    equations, ends = [], []
    for _block in range(draw(st.integers(1, 4))):
        block, end = draw(_local_blocks(fresh))
        equations.extend(block)
        ends.append(end)
    # cross references between blocks, over any locals and constants
    for _extra in range(draw(st.integers(0, 3))):
        target = fresh()
        left = draw(st.sampled_from(counter[:-1]))
        right = draw(st.one_of(st.sampled_from(counter[:-1]), _CONSTANTS))
        equations.append(FunctionEquation(target, "+", (left, right)))
    # spell the locals in an order unrelated to their structure
    prefix = draw(st.sampled_from(["t", "_x_", "h"]))
    order = draw(st.permutations(range(len(counter))))
    spelling = {name: f"{prefix}{position}" for name, position in zip(counter, order)}
    equations.append(FunctionEquation("o0", "id", (draw(st.sampled_from(ends)),)))
    renamed = [rename_equation(equation, spelling) for equation in equations]
    process = NormalizedProcess(
        name="p",
        inputs=_INPUTS,
        outputs=("o0",),
        locals=tuple(spelling[name] for name in counter),
        equations=tuple(draw(st.permutations(renamed))),
    )
    process.types = infer_types(process)
    return process


@settings(max_examples=100, deadline=None)
@given(_hidden_local_processes())
def test_linear_rounds_rename_like_the_reference(process):
    assert _canonical_local_renaming(process) == _reference_local_renaming(process)
    assert format_canonical(process) == _reference_canonical(process)


def test_canonical_form_renders_each_equation_at_most_twice(monkeypatch):
    """The refinement rounds fill render templates instead of rendering
    again: a 64-stage derivative chain (about 200 hidden locals, as many
    rounds as the chain is long) costs at most two renders per equation."""
    process = normalize(derivative_chain(64))
    calls = []

    def counting(equation):
        calls.append(equation)
        return format_primitive_equation(equation)

    monkeypatch.setattr(printer, "format_primitive_equation", counting)
    form = format_canonical(process)
    assert 0 < len(calls) <= 2 * len(process.equations)
    monkeypatch.undo()
    assert process_digest(normalize(derivative_chain(64))) == process_digest(process)
    assert form.count("\n  ") == len(process.equations)


def test_memoized_signal_sets_follow_reassignment_and_stay_out_of_pickles():
    import pickle

    process = normalize(derivative_chain(2))
    equation = process.equations[0]
    fresh = normalize(derivative_chain(2))
    assert process.all_signals() == fresh.all_signals()
    assert equation.signals() == fresh.equations[0].signals()
    format_canonical(process)  # fills the render templates
    assert process == fresh and equation == fresh.equations[0]
    assert hash(equation) == hash(fresh.equations[0])
    assert repr(process) == repr(fresh)
    assert pickle.dumps(process) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(process)) == process
    process.inputs = ("c", "extra")
    assert "extra" in process.all_signals()
    process.equations = process.equations[:1]
    assert process.all_signals() == tuple(
        sorted({"c", "extra", "g2", *process.locals, *equation.signals()})
    )
