"""The Design session facade: constructors, caching, verdicts, backends."""

from __future__ import annotations

import pytest

from repro import Design, analyze
from repro.api.backends import VerificationError
from repro.api.results import Verdict
from repro.api.session import AnalysisContext
from repro.lang.builder import ProcessBuilder, const, signal
from repro.gen.topologies import pipeline_network
from repro.library.producer_consumer import normalized_suite

FILTER_SOURCE = """
process filter (y) returns (x) {
  local z;
  x := true when (y /= z);
  z := y pre true;
}
"""

PROGRAM_SOURCE = """
process filter (y) returns (x) {
  local z;
  x := true when (y /= z);
  z := y pre true;
}
process top (y) returns (x) {
  (x) := filter(y);
}
"""


def _filter_builder() -> ProcessBuilder:
    builder = ProcessBuilder("filter", inputs=["y"], outputs=["x"])
    builder.local("z")
    builder.define("x", const(True).when(signal("y").ne(signal("z"))))
    builder.define("z", signal("y").pre(True))
    return builder


class TestConstructors:
    def test_from_source_single_process(self):
        design = Design.from_source(FILTER_SOURCE)
        assert design.name == "filter"
        assert [component.name for component in design.components] == ["filter"]

    def test_from_source_selects_root_processes(self):
        design = Design.from_source(PROGRAM_SOURCE)
        # `top` instantiates `filter`, so only `top` is a component ...
        assert [component.name for component in design.components] == ["top"]
        # ... and `filter` is resolvable from the registry.
        assert design.verify("endochrony")

    def test_from_source_explicit_component_selection(self):
        design = Design.from_source(PROGRAM_SOURCE, components=["filter"])
        assert [component.name for component in design.components] == ["filter"]
        with pytest.raises(ValueError):
            Design.from_source(PROGRAM_SOURCE, components=["missing"])

    def test_from_builder(self):
        design = Design.from_builder(_filter_builder())
        assert design.name == "filter"
        assert design.verify("endochrony")

    def test_add_component_chains_and_accepts_source(self):
        suite = normalized_suite()
        design = (
            Design(name="main")
            .add_component(suite["producer"])
            .add_component(suite["consumer"])
        )
        assert len(design.components) == 2
        assert design.composition.name == "main"

    def test_empty_design_rejects_composition(self):
        with pytest.raises(ValueError):
            Design(name="empty").composition


class TestSharedContext:
    def test_component_analyses_are_memoized(self):
        suite = normalized_suite()
        design = Design(name="main", components=[suite["producer"], suite["consumer"]])
        first = design.component_analyses()
        second = design.component_analyses()
        assert all(a is b for a, b in zip(first, second))

    def test_one_bdd_manager_across_components(self):
        suite = normalized_suite()
        design = Design(name="main", components=[suite["producer"], suite["consumer"]])
        managers = {id(analysis.algebra.manager) for analysis in design.component_analyses()}
        managers.add(id(design.analysis.algebra.manager))
        assert managers == {id(design.context.manager)}

    def test_criterion_reuses_component_analyses(self):
        suite = normalized_suite()
        design = Design(name="main", components=[suite["producer"], suite["consumer"]])
        analyses = design.component_analyses()
        verdict = design.criterion()
        assert verdict.weakly_hierarchic()
        # the criterion consumed the memoized analyses, not fresh ones
        assert design.context.analysis(design.components[0]) is analyses[0]

    def test_verdicts_are_cached_per_property_and_method(self):
        suite = normalized_suite()
        design = Design(name="main", components=[suite["producer"], suite["consumer"]])
        first = design.verify("weak-endochrony")
        second = design.verify("weak-endochrony")
        assert first is second
        assert design.verify("weak-endochrony", method="explicit") is not first

    def test_adding_a_component_invalidates_composed_artefacts(self):
        suite = normalized_suite()
        design = Design(name="main", components=[suite["producer"]])
        cached = design.verify("compilable")
        design.add_component(suite["consumer"])
        assert design.verify("compilable") is not cached
        assert len(design.composition.inputs) >= 2

    def test_context_shared_between_designs(self):
        context = AnalysisContext()
        suite = normalized_suite()
        left = Design(name="left", components=[suite["producer"]], context=context)
        right = Design(name="right", components=[suite["producer"]], context=context)
        assert left.component_analyses()[0] is right.component_analyses()[0]


class TestVerifyBackends:
    @pytest.fixture(scope="class")
    def main_design(self):
        suite = normalized_suite()
        return Design(name="main", components=[suite["producer"], suite["consumer"]])

    def test_static_explicit_and_symbolic_agree(self, main_design):
        static = main_design.verify("weak-endochrony", method="static")
        explicit = main_design.verify("weak-endochrony", method="explicit")
        symbolic = main_design.verify("weak-endochrony", method="symbolic")
        assert static.holds and explicit.holds and symbolic.holds
        assert static.cost.states == 0  # the whole point of Theorem 1
        assert explicit.cost.states > 0

    def test_auto_prefers_static(self, main_design):
        verdict = main_design.verify("weak-endochrony", method="auto")
        assert verdict.method == "static"

    def test_auto_falls_back_to_model_checking(self):
        # x and y are unrelated inputs: two hierarchy roots, criterion fails,
        # yet the process is weakly endochronous (independent reactions commute).
        builder = ProcessBuilder("free2", inputs=["x", "y"], outputs=["u", "v"])
        builder.define("u", signal("x"))
        builder.define("v", signal("y"))
        design = Design.from_builder(builder)
        verdict = design.verify("weak-endochrony")
        # the model-checking fallback runs on the compiled reaction engine
        assert verdict.method == "compiled"
        assert verdict.holds
        assert "fell back" in verdict.diagnostics[0].name

    def test_non_blocking_explicit_and_symbolic_agree(self, main_design):
        explicit = main_design.verify("non-blocking", method="explicit")
        symbolic = main_design.verify("non-blocking", method="symbolic")
        assert explicit.holds and symbolic.holds
        assert symbolic.method == "symbolic"

    def test_isochrony_static_via_theorem_1(self, main_design):
        verdict = main_design.verify("isochrony")
        assert verdict.holds
        assert verdict.method == "static"

    def test_isochrony_explicit_on_two_components(self, main_design):
        verdict = main_design.verify(
            "isochrony",
            method="explicit",
            input_flows={"a": [True, False], "b": [False, True]},
            max_instants=4,
        )
        assert isinstance(verdict, Verdict)
        assert verdict.holds

    def test_hierarchic_reports_root_count(self, main_design):
        verdict = main_design.verify("hierarchic")
        assert not verdict.holds  # producer|consumer keeps two roots
        assert "2 roots" in verdict.diagnostics[0].detail

    def test_symbolic_agrees_with_explicit_on_truncated_lts(self):
        """Truncating max_states must not invent BDD-reachable deadlock states."""
        from repro.library.ltta import normalized_suite as ltta_suite

        design = Design.from_process(ltta_suite()["ltta"])
        explicit = design.verify("non-blocking", method="explicit", max_states=4)
        symbolic = design.verify("non-blocking", method="symbolic", max_states=4)
        assert explicit.holds == symbolic.holds
        cross_check = design.verify("weak-endochrony", method="symbolic", max_states=4)
        assert cross_check.diagnostics[-1].holds  # BDD reachability == exploration

    def test_alias_spellings_share_one_cache_entry(self, main_design):
        assert main_design.verify("weak_endochrony") is main_design.verify("weak-endochrony")

    def test_explicit_composition_parameter(self):
        components, composition = pipeline_network(3)
        design = Design(
            name=composition.name, components=list(components), composition=composition
        )
        assert design.composition is composition
        # changing the component list discards the injected composition
        design.add_component(components[0])
        assert design.composition is not composition

    def test_isochrony_auto_marks_inconclusive_without_fallback(self):
        from repro.lang.builder import ProcessBuilder, signal

        builder = ProcessBuilder("free2", inputs=["x", "y"], outputs=["u", "v"])
        builder.define("u", signal("x"))
        builder.define("v", signal("y"))
        design = Design.from_builder(builder)
        verdict = design.verify("isochrony")  # single component, no flows
        assert not verdict.holds
        assert "NOT disproved" in verdict.diagnostics[0].name

    def test_property_aliases_and_errors(self, main_design):
        assert main_design.verify("weakly_endochronous").holds
        with pytest.raises(VerificationError):
            main_design.verify("no-such-property")
        with pytest.raises(VerificationError):
            main_design.verify("compilable", method="explicit")
        with pytest.raises(VerificationError):
            main_design.verify("weak-endochrony", method="sigali")

    @pytest.mark.parametrize(
        "prop, method, components, options, message",
        [
            (
                "isochrony", "symbolic", 2, {},
                "isochrony has no symbolic backend; use static or explicit",
            ),
            (
                "isochrony", "compiled", 2, {},
                "isochrony has no compiled backend; use static or explicit",
            ),
            (
                "endochrony", "symbolic", 2, {},
                "endochrony supports methods auto/static/explicit",
            ),
            (
                "isochrony", "explicit", 3, {"input_flows": {"x0": [True]}},
                "isochrony with method='explicit' compares the synchronous and "
                "asynchronous compositions of exactly two components",
            ),
            (
                "isochrony", "explicit", 2, {},
                "isochrony with method='explicit' needs input_flows={signal: [values...]}",
            ),
            (
                "compilable", "compiled", 2, {},
                "compilable is decided by the clock calculus; use method='static'",
            ),
        ],
    )
    def test_dispatcher_refusals(self, main_design, prop, method, components, options, message):
        if components == 2:
            design = main_design
        else:
            pipeline, _ = pipeline_network(components)
            design = Design(name="pipeline", components=list(pipeline))
        with pytest.raises(VerificationError) as refusal:
            design.verify(prop, method=method, **options)
        assert refusal.type is VerificationError
        assert str(refusal.value) == message

    def test_verdict_diagnostics_carry_reported_constraints(self, main_design):
        verdict = main_design.verify("weakly-hierarchic")
        constraints = [d for d in verdict.diagnostics if d.name == "reported clock constraints"]
        assert constraints and any("[b]" in text for text in constraints[0].witness)


class TestCanonicalAnalyze:
    def test_analyze_accepts_builder_and_source(self):
        from_builder = analyze(_filter_builder())
        from_source = analyze(FILTER_SOURCE)
        assert from_builder.summary() == from_source.summary()

    def test_analyze_with_context_memoizes(self):
        context = AnalysisContext()
        definition = _filter_builder().build()
        assert analyze(definition, context=context) is analyze(definition, context=context)


class TestScaling:
    def test_pipeline_design_matches_flat_criterion(self):
        components, composition = pipeline_network(4)
        design = Design(name=composition.name, components=list(components))
        verdict = design.verify("weakly-hierarchic")
        assert verdict.holds
        assert verdict.cost.components == 4
        assert design.summary()["components"].keys() == {c.name for c in components}
