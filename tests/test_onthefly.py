"""The on-the-fly engine: lazy/eager equivalence, products, batch layer.

The load-bearing guarantee of :mod:`repro.mc.onthefly` is that laziness is
*only* an evaluation strategy: the lazy product of component abstractions,
fully materialized, is the very same reaction LTS that materializing the
interpreter-backed abstraction of the composed process yields (eager
exploration), and every property verdict (with a valid witness on failure)
agrees between the two.  The property-based tests below pin this on
randomly drawn compositions from the generator families and the paper's
component library.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Design
from repro.lang.builder import ProcessBuilder, signal
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_process
from repro.gen.topologies import (
    chain_of_buffers,
    independent_components,
    pipeline_network,
    star_network,
)
from repro.gen.corpus import Corpus
from repro.library.producer_consumer import normalized_suite
from repro.mc import (
    BooleanAbstraction,
    LazyReactionLTS,
    OnTheFlyChecker,
    ProductLTS,
    SymbolicProductChecker,
)
from repro.properties.nonblocking import verify_non_blocking
from repro.properties.weak_endochrony import _AXIOMS, check_weak_endochrony

MAX_STATES = 2048


def _transition_set(lts):
    return {(t.source, t.reaction, t.target) for t in lts.transitions}


def _composed(process, max_states=MAX_STATES):
    """The interpreter-backed engine over the composed process (the oracle)."""
    return OnTheFlyChecker(LazyReactionLTS(process), max_states)


def _materialize(process, max_states=MAX_STATES):
    return _composed(process, max_states).materialize()


_GENERATORS = {
    "pipeline": pipeline_network,
    "star": star_network,
    "buffers": chain_of_buffers,
    "independent": independent_components,
}


def _arbiter_for(composition):
    """A merge arbiter over the composition's first output (breaks Definition 2)."""
    tail = sorted(composition.outputs)[0]
    builder = ProcessBuilder("arbiter", inputs=[tail, "fresh_w"], outputs=["arb_out"])
    builder.define("arb_out", signal(tail).default(signal("fresh_w")))
    return normalize(builder.build())


@st.composite
def random_composition(draw):
    """A random small composition: a generator family, optionally + arbiter."""
    family = draw(st.sampled_from(sorted(_GENERATORS)))
    size = draw(st.integers(min_value=1, max_value=3))
    components, composition = _GENERATORS[family](size)
    components = list(components)
    if draw(st.booleans()):
        arbiter = _arbiter_for(composition)
        components.append(arbiter)
        composition = composition.compose(arbiter)
    assume(len(components) >= 2)
    return components, composition


@st.composite
def library_pair(draw):
    """A random pair of library components composed by name-matching."""
    suite = normalized_suite()
    pool = {
        "producer": suite["producer"],
        "consumer": suite["consumer"],
        "filter": normalize(filter_process()),
        "buffer": normalize(buffer_process()),
    }
    names = draw(
        st.lists(st.sampled_from(sorted(pool)), min_size=2, max_size=2, unique=True)
    )
    return [pool[name] for name in names]


class TestLazyEagerEquivalence:
    @given(random_composition())
    @settings(max_examples=25, deadline=None)
    def test_materialized_product_equals_eager_lts(self, drawn):
        components, composition = drawn
        composed = _materialize(composition)
        engine = OnTheFlyChecker(ProductLTS(components), max_states=MAX_STATES)
        materialized = engine.materialize()
        assert materialized.initial == composed.initial
        assert set(materialized.states) == set(composed.states)
        assert _transition_set(materialized) == _transition_set(composed)
        assert materialized.truncated == composed.truncated

    @given(random_composition())
    @settings(max_examples=25, deadline=None)
    def test_weak_endochrony_verdicts_agree(self, drawn):
        components, composition = drawn
        composed = _composed(composition)
        composed_report = check_weak_endochrony(composition, checker=composed)
        engine = OnTheFlyChecker(ProductLTS(components), max_states=MAX_STATES)
        lazy_report = check_weak_endochrony(composition, checker=engine)
        assert lazy_report.holds() == composed_report.holds()
        # the product never visits more states than the composed process has
        assert lazy_report.states_explored <= composed.materialize().state_count()
        if not lazy_report.holds():
            # the witness is valid: the axiom the product engine refuted
            # also fails at some state of the composed process
            lazy_failure = lazy_report.failures()[0]
            axiom_at = dict(_AXIOMS)[lazy_failure.name]
            assert any(
                axiom_at(composed, state) is not None for state in composed.iter_states()
            )
            assert lazy_failure.counterexample

    @given(random_composition())
    @settings(max_examples=15, deadline=None)
    def test_non_blocking_verdicts_agree(self, drawn):
        components, composition = drawn
        composed = verify_non_blocking(composition, max_states=MAX_STATES)
        engine = OnTheFlyChecker(ProductLTS(components), max_states=MAX_STATES)
        lazy = verify_non_blocking(composition, checker=engine)
        assert lazy.holds == composed.holds

    @given(library_pair())
    @settings(max_examples=10, deadline=None)
    def test_library_pairs_agree(self, components):
        left, right = components
        composition = left.compose(right)
        try:
            product = ProductLTS(components)
        except ValueError:
            assume(False)  # clashing register names: no product is defined
        composed = _materialize(composition)
        materialized = OnTheFlyChecker(product, max_states=MAX_STATES).materialize()
        assert set(materialized.states) == set(composed.states)
        assert _transition_set(materialized) == _transition_set(composed)

    @pytest.mark.parametrize("family,size", [("pipeline", 3), ("buffers", 3), ("star", 2)])
    def test_symbolic_product_matches_explicit_reachability(self, family, size):
        components, composition = _GENERATORS[family](size)
        composed = _materialize(composition)
        checker = SymbolicProductChecker(
            [_materialize(c, 512) for c in components], components=components
        )
        assert checker.reachable_count() == composed.state_count()
        assert checker.is_non_blocking().holds


class TestOnTheFlyChecker:
    def test_single_component_lazy_matches_eager(self):
        # eager exploration, spelled out: breadth-first over the abstraction
        # in its reaction order — materialize() must reproduce it exactly
        process = normalized_suite()["producer"]
        abstraction = BooleanAbstraction(process)
        materialized = OnTheFlyChecker(LazyReactionLTS(process)).materialize()
        assert materialized.initial == abstraction.initial_state()
        order, expected = [materialized.initial], []
        for state in order:
            for reaction, target in abstraction.reactions(state):
                expected.append((state, reaction, target))
                if target not in order:
                    order.append(target)
        assert materialized.states == order
        assert [(t.source, t.reaction, t.target) for t in materialized.transitions] == expected

    def test_truncation_respects_state_bound(self):
        components, _composition = chain_of_buffers(4)  # 108 reachable states
        engine = OnTheFlyChecker(ProductLTS(components), max_states=10)
        engine.explore_all()
        assert engine.truncated
        assert engine.states_discovered == 10

    def test_early_termination_expands_less_than_full_exploration(self):
        components, composition = chain_of_buffers(3)
        arbiter = _arbiter_for(composition)
        components = list(components) + [arbiter]
        engine = OnTheFlyChecker(ProductLTS(components), max_states=MAX_STATES)
        report = check_weak_endochrony(composition.compose(arbiter), checker=engine)
        assert not report.holds()
        assert not report.complete
        full = _materialize(composition.compose(arbiter))
        assert engine.states_expanded < full.state_count()

    def test_truncated_all_holds_report_is_marked_incomplete(self):
        components, composition = chain_of_buffers(4)  # 108 reachable states
        engine = OnTheFlyChecker(ProductLTS(components), max_states=10)
        report = check_weak_endochrony(composition, checker=engine)
        assert engine.truncated
        assert report.holds()  # all axioms hold on the states that were seen...
        assert not report.complete  # ...but a bound-cut run is not a proof

    def test_truncated_non_blocking_verdict_carries_bound_diagnostic(self):
        components, composition = chain_of_buffers(4)
        engine = OnTheFlyChecker(ProductLTS(components), max_states=10)
        verdict = verify_non_blocking(composition, checker=engine)
        assert verdict.holds
        assert any("state bound" in d.name for d in verdict.diagnostics)

    def test_symbolic_product_rejects_multiply_defined_components(self):
        producer = normalized_suite()["producer"]
        buffer = normalize(buffer_process())  # both define x
        with pytest.raises(ValueError):
            SymbolicProductChecker(
                [_materialize(producer, 512), _materialize(buffer, 512)],
                components=[producer, buffer],
            )

    def test_statistics_keys(self):
        components, _composition = pipeline_network(2)
        engine = OnTheFlyChecker(ProductLTS(components), max_states=64)
        engine.explore_all()
        statistics = engine.statistics()
        assert statistics["states_expanded"] == engine.states_expanded
        assert statistics["state_bound"] == 64
        assert statistics["truncated"] == 0

    def test_product_rejects_clashing_registers(self):
        process = normalize(buffer_process())
        with pytest.raises(ValueError):
            ProductLTS([process, process])

    def test_product_rejects_multiply_defined_signals(self):
        # producer and buffer both define x: the canonical-value abstraction
        # cannot join two defining equations, so no product is offered
        producer = normalized_suite()["producer"]
        buffer = normalize(buffer_process())
        with pytest.raises(ValueError):
            ProductLTS([producer, buffer])

    def test_engine_falls_back_to_composition_on_unproductable_components(self):
        producer = normalized_suite()["producer"]
        buffer = normalize(buffer_process())
        design = Design(name="pb", components=[producer, buffer])
        verdict = design.verify("non-blocking", method="explicit")
        composed = verify_non_blocking(producer.compose(buffer))
        assert verdict.holds == composed.holds

    def test_query_cost_does_not_depend_on_earlier_queries(self):
        def design():
            components, _composition = chain_of_buffers(3)
            builder = ProcessBuilder("arbiter", inputs=["y3", "w"], outputs=["out"])
            builder.define("out", signal("y3").default(signal("w")))
            return Design(name="arb", components=list(components) + [normalize(builder.build())])

        fresh = design().verify("weak-endochrony", method="symbolic")
        warmed = design()
        warmed.verify("non-blocking", method="compiled")  # explores every state
        again = warmed.verify("weak-endochrony", method="symbolic")
        assert not fresh.holds and not again.holds
        assert fresh.cost.states == again.cost.states == 19
        assert fresh.cost.transitions == again.cost.transitions

    def test_context_memoizes_engines(self):
        components, composition = pipeline_network(2)
        design = Design(name=composition.name, components=list(components))
        first = design.context.onthefly(list(components), 128)
        second = design.context.onthefly(list(components), 128)
        assert first is second
        assert design.context.onthefly(list(components), 256) is not first


COMMITTED_CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "corpus.json"


@pytest.fixture(scope="module")
def corpus_processes():
    """The committed corpus's compositions and their components."""
    corpus = Corpus.load(COMMITTED_CORPUS)
    processes = []
    for entry in corpus:
        generated = entry.regenerate()
        processes.append(generated.composition)
        processes.extend(generated.components)
    return corpus.max_states, processes


def _drive(prop, process, max_states):
    """``(holds, states, transitions)`` of a driver on its default engine."""
    if prop == "weak-endochrony":
        report = check_weak_endochrony(process, max_states=max_states)
        return report.holds(), report.states_explored, report.transitions_explored
    verdict = verify_non_blocking(process, max_states=max_states)
    return verdict.holds, verdict.cost.states, verdict.cost.transitions


class TestDefaultEngineOverCorpus:
    @pytest.mark.parametrize("prop", ["weak-endochrony", "non-blocking"])
    def test_drivers_agree_with_design_verify_and_context_lts(self, prop, corpus_processes):
        max_states, processes = corpus_processes
        assert len(processes) == 217
        mismatches = []
        for process in processes:
            holds, states, transitions = _drive(prop, process, max_states)
            design = Design.from_process(process)
            if holds != design.verify(prop, "explicit", max_states=max_states).holds:
                mismatches.append((process.name, "verdict"))
            if holds:
                # a holding check visits every state the exploration reaches
                lts = design.context.lts(process, max_states, engine="interpreter")
                if (states, transitions) != (lts.state_count(), lts.transition_count()):
                    mismatches.append((process.name, "counts"))
        assert mismatches == []


class TestBatchLayer:
    @pytest.fixture()
    def design(self):
        components, composition = chain_of_buffers(2)
        return Design(name=composition.name, components=list(components))

    def test_verify_many_spec_forms(self, design):
        verdicts = design.verify_many(
            [
                "non-blocking",
                ("weak-endochrony", "explicit"),
                ("non-blocking", "explicit", {"max_states": 128}),
                {"prop": "weakly-hierarchic", "method": "static"},
            ]
        )
        assert [v.prop for v in verdicts] == [
            "non-blocking",
            "weak-endochrony",
            "non-blocking",
            "weakly-hierarchic",
        ]
        assert all(isinstance(bool(v), bool) for v in verdicts)

    def test_verify_many_rejects_bad_spec(self, design):
        with pytest.raises(ValueError):
            design.verify_many([("too", "many", "items", "here")])

    def test_verify_many_parallel_matches_sequential(self, design):
        specs = [("non-blocking", "explicit"), ("weak-endochrony", "explicit")]
        sequential = design.verify_many(specs)
        parallel = design.verify_many(specs, parallel=2)
        assert [bool(v) for v in sequential] == [bool(v) for v in parallel]
        # cross-process verdicts are sanitized: no report payload
        assert all(v.report is None for v in parallel)
        assert all(v.report is not None for v in sequential)

    def test_map_components_checks_each_component(self, design):
        verdicts = design.map_components("endochrony")
        assert len(verdicts) == 2
        assert [bool(v) for v in verdicts] == [
            bool(design.component_design(index).verify("endochrony")) for index in (0, 1)
        ]

    def test_component_design_shares_context(self, design):
        sub = design.component_design(0)
        assert sub.context is design.context
        assert design.component_design(0) is sub
