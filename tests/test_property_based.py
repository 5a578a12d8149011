"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.bdd.bdd import BDDManager
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_process
from repro.codegen.sequential import compile_process
from repro.codegen.runtime import StreamIO
from repro.mocc.behaviors import Behavior, clock_equivalent, flow_equivalent
from repro.mocc.reactions import Reaction, independent, merge_reactions
from repro.mocc.signals import SignalTrace
from repro.semantics.interpreter import SignalInterpreter

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

values = st.integers(min_value=-5, max_value=5)
tag_lists = st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=8, unique=True)


@st.composite
def signal_traces(draw):
    tags = sorted(draw(tag_lists))
    return SignalTrace({tag: draw(values) for tag in tags})


@st.composite
def behaviors(draw, names=("x", "y", "z")):
    return Behavior({name: draw(signal_traces()) for name in names})


@st.composite
def boolean_expressions(draw, depth=3):
    variables = ("a", "b", "c", "d")
    if depth == 0 or draw(st.booleans()):
        return ("var", draw(st.sampled_from(variables)))
    operator = draw(st.sampled_from(["and", "or", "xor", "not"]))
    if operator == "not":
        return ("not", draw(boolean_expressions(depth=depth - 1)))
    return (operator, draw(boolean_expressions(depth=depth - 1)), draw(boolean_expressions(depth=depth - 1)))


def evaluate_expression(expression, assignment):
    kind = expression[0]
    if kind == "var":
        return assignment[expression[1]]
    if kind == "not":
        return not evaluate_expression(expression[1], assignment)
    left = evaluate_expression(expression[1], assignment)
    right = evaluate_expression(expression[2], assignment)
    if kind == "and":
        return left and right
    if kind == "or":
        return left or right
    return left != right


def build_bdd(expression, manager):
    kind = expression[0]
    if kind == "var":
        return manager.var(expression[1])
    if kind == "not":
        return ~build_bdd(expression[1], manager)
    left = build_bdd(expression[1], manager)
    right = build_bdd(expression[2], manager)
    if kind == "and":
        return left & right
    if kind == "or":
        return left | right
    return left ^ right


# ---------------------------------------------------------------------------
# BDD correctness
# ---------------------------------------------------------------------------


class TestBDDProperties:
    @given(boolean_expressions())
    @settings(max_examples=60, deadline=None)
    def test_bdd_agrees_with_direct_evaluation(self, expression):
        manager = BDDManager(["a", "b", "c", "d"])
        compiled = build_bdd(expression, manager)
        for a in (False, True):
            for b in (False, True):
                for c in (False, True):
                    for d in (False, True):
                        assignment = {"a": a, "b": b, "c": c, "d": d}
                        assert compiled.evaluate(assignment) == evaluate_expression(
                            expression, assignment
                        )

    @given(boolean_expressions(), boolean_expressions())
    @settings(max_examples=40, deadline=None)
    def test_de_morgan(self, left, right):
        manager = BDDManager(["a", "b", "c", "d"])
        first = build_bdd(left, manager)
        second = build_bdd(right, manager)
        assert (~(first & second)) == ((~first) | (~second))
        assert (~(first | second)) == ((~first) & (~second))

    @given(boolean_expressions())
    @settings(max_examples=40, deadline=None)
    def test_quantification_bounds(self, expression):
        manager = BDDManager(["a", "b", "c", "d"])
        compiled = build_bdd(expression, manager)
        assert manager.leq(compiled.forall(["a"]), compiled)
        assert manager.leq(compiled, compiled.exists(["a"]))


# ---------------------------------------------------------------------------
# model-of-computation equivalences
# ---------------------------------------------------------------------------


class TestEquivalenceProperties:
    @given(behaviors())
    @settings(max_examples=50, deadline=None)
    def test_clock_equivalence_is_reflexive_and_implies_flow_equivalence(self, behavior):
        assert clock_equivalent(behavior, behavior)
        assert flow_equivalent(behavior, behavior)

    @given(behaviors(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=50, deadline=None)
    def test_uniform_stretching_preserves_clock_equivalence(self, behavior, factor):
        stretched = Behavior(
            {
                name: trace.relabel(lambda tag: tag * factor)
                for name, trace in behavior.items()
            }
        )
        assert clock_equivalent(behavior, stretched)

    @given(behaviors())
    @settings(max_examples=50, deadline=None)
    def test_per_signal_retiming_preserves_flow_equivalence(self, behavior):
        relaxed = Behavior(
            {name: SignalTrace.from_values(trace.values) for name, trace in behavior.items()}
        )
        assert flow_equivalent(behavior, relaxed)

    @given(behaviors())
    @settings(max_examples=50, deadline=None)
    def test_canonical_form_is_idempotent(self, behavior):
        canonical = behavior.canonical()
        assert canonical == canonical.canonical()


class TestReactionProperties:
    @given(
        st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), values, max_size=2),
        st.dictionaries(st.sampled_from(["e", "f", "g"]), values, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_of_independent_reactions_is_commutative(self, left_events, right_events):
        domain = ("a", "b", "c", "d", "e", "f", "g")
        left = Reaction(domain, left_events)
        right = Reaction(domain, right_events)
        assert independent(left, right)
        assert merge_reactions(left, right) == merge_reactions(right, left)
        merged = merge_reactions(left, right)
        assert merged.present_signals() == left.present_signals() | right.present_signals()


# ---------------------------------------------------------------------------
# generated code vs. interpreter oracle
# ---------------------------------------------------------------------------


class TestCodegenAgainstInterpreter:
    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_filter_generated_code_matches_interpreter(self, stream):
        process = normalize(filter_process())
        compiled = compile_process(process)
        interpreter = SignalInterpreter(process)
        io = StreamIO({"y": list(stream)})
        compiled.run(io)
        expected = []
        for value in stream:
            result = interpreter.step({"y": value})
            if result.present("x"):
                expected.append(result.value("x"))
        assert io.output("x") == expected

    @given(st.lists(st.integers(min_value=-10, max_value=10), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_buffer_is_a_fifo_of_depth_one(self, stream):
        """Whatever is written to the buffer comes out unchanged, in order."""
        compiled = compile_process(normalize(buffer_process()))
        io = StreamIO({"y": list(stream)})
        compiled.run(io)
        assert io.output("x") == list(stream)
