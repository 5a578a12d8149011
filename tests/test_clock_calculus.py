"""Tests for clock inference, the clock algebra, the hierarchy and disjunctive form.

These cover experiments E5-E7 of DESIGN.md: the buffer's clock relations and
equivalence classes, its hierarchy figure, and the disjunctive form of the
symmetric difference in ``current``.
"""

from pathlib import Path

import pytest

from repro.api.session import AnalysisContext
from repro.bdd.bdd import BDDManager
from repro.clocks.algebra import (
    ClockAlgebra,
    clock_variables,
    presence_variable,
    value_variable,
)
from repro.clocks.disjunctive import is_well_clocked, to_disjunctive_form
from repro.clocks.expressions import (
    clock_key,
    contains_difference,
    format_clock_expression,
    simplify_clock,
)
from repro.clocks.hierarchy import _interesting_clocks, build_hierarchy
from repro.clocks.inference import infer_timing_relations
from repro.clocks.order import structural_order
from repro.clocks.relations import TimingRelations
from repro.gen import design_space, topologies
from repro.gen.corpus import Corpus
from repro.lang.ast import ClockBinary, ClockEmpty, ClockFalse, ClockOf, ClockTrue
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_process
from repro.properties.compilable import ProcessAnalysis


class TestClockExpressions:
    def test_clock_key_distinguishes_forms(self):
        assert clock_key(ClockOf("x")) != clock_key(ClockTrue("x"))
        assert clock_key(ClockTrue("x")) != clock_key(ClockFalse("x"))

    def test_simplify_neutral_elements(self):
        zero = ClockEmpty()
        x = ClockOf("x")
        assert isinstance(simplify_clock(ClockBinary("and", x, zero)), ClockEmpty)
        assert simplify_clock(ClockBinary("or", x, zero)) == x
        assert simplify_clock(ClockBinary("diff", x, x)) == ClockEmpty()
        assert simplify_clock(ClockBinary("or", x, x)) == x

    def test_contains_difference(self):
        assert contains_difference(ClockBinary("diff", ClockOf("a"), ClockOf("b")))
        assert not contains_difference(ClockBinary("or", ClockOf("a"), ClockOf("b")))

    def test_format(self):
        rendered = format_clock_expression(
            ClockBinary("and", ClockOf("x"), ClockFalse("t"))
        )
        assert rendered == "(x^ ∧ [¬t])"


class TestInference:
    def test_delay_synchronizes(self):
        process = normalize(
            ProcessBuilder("d", inputs=["a"], outputs=["x"]).define("x", signal("a").pre(0)).build()
        )
        relations = infer_timing_relations(process)
        assert len(relations.clock_relations) == 1
        assert not relations.scheduling_relations

    def test_sampling_produces_conjunction_and_dependency(self):
        process = normalize(
            ProcessBuilder("s", inputs=["y", "c"], outputs=["x"])
            .define("x", signal("y").when(signal("c")))
            .build()
        )
        relations = infer_timing_relations(process)
        [relation] = relations.clock_relations
        assert isinstance(relation.right, ClockBinary) and relation.right.operator == "and"
        assert len(relations.scheduling_relations) == 2

    def test_merge_produces_disjunction_and_difference_scheduling(self):
        process = normalize(
            ProcessBuilder("m", inputs=["y", "z"], outputs=["x"])
            .define("x", signal("y").default(signal("z")))
            .build()
        )
        relations = infer_timing_relations(process)
        [relation] = relations.clock_relations
        assert isinstance(relation.right, ClockBinary) and relation.right.operator == "or"
        difference_edges = [
            scheduling
            for scheduling in relations.scheduling_relations
            if isinstance(scheduling.clock, ClockBinary) and scheduling.clock.operator == "diff"
        ]
        assert len(difference_edges) == 1

    def test_buffer_clock_relations_match_paper(self):
        """E5: the buffer has one master class {s, t, r, m} and two sampled classes."""
        process = normalize(buffer_process())
        relations = infer_timing_relations(process)
        algebra = ClockAlgebra(process, relations)
        master = ["buffer_s", "buffer_t", "buffer_r", "buffer_m"]
        for name in master[1:]:
            assert algebra.entails_equal(ClockOf(master[0]), ClockOf(name))
        assert algebra.entails_equal(ClockOf("x"), ClockTrue("buffer_t"))
        assert algebra.entails_equal(ClockOf("y"), ClockFalse("buffer_t"))
        # the deduction r^ = x^ ∨ y^ highlighted in Section 3.2
        assert algebra.entails_equal(
            ClockOf("buffer_r"), ClockBinary("or", ClockOf("x"), ClockOf("y"))
        )


class TestAlgebra:
    def test_entailment_uses_boolean_axioms(self, filter_normalized):
        relations = infer_timing_relations(filter_normalized)
        algebra = ClockAlgebra(filter_normalized, relations)
        # x^ = [x] ∨ [¬x] holds by construction of the encoding
        assert algebra.entails_equal(
            ClockOf("y"), ClockBinary("or", ClockTrue("y"), ClockFalse("y"))
        )
        assert algebra.is_exclusive(ClockTrue("y"), ClockFalse("y"))

    def test_satisfiability(self, filter_normalized):
        relations = infer_timing_relations(filter_normalized)
        algebra = ClockAlgebra(filter_normalized, relations)
        assert algebra.satisfiable()

    def test_empty_clock_detection(self):
        """A signal synchronized to both [a] and [¬a] can never be present."""
        builder = ProcessBuilder("dead", inputs=["a"], outputs=["x"])
        builder.define("x", const(1).when(signal("a")))
        builder.constrain(tick("x"), when_true("a"))
        builder.constrain(tick("x"), ClockFalse("a"))
        process = normalize(builder.build())
        analysis = ProcessAnalysis(process)
        assert analysis.algebra.is_empty_clock(ClockOf("x"))
        # forcing [a] = [¬a] = 0 empties the clock of a as well
        assert analysis.algebra.is_empty_clock(ClockOf("a"))


class TestHierarchy:
    def test_filter_hierarchy_is_single_rooted(self, filter_analysis):
        assert filter_analysis.hierarchy.is_hierarchic()
        [root] = filter_analysis.hierarchy.roots()
        assert "y" in root.signal_clocks()

    def test_buffer_hierarchy_matches_paper_figure(self, buffer_analysis):
        """E6: root {s, t, r}, with [t] ~ x^ and [¬t] ~ y^ below it."""
        hierarchy = buffer_analysis.hierarchy
        assert hierarchy.is_hierarchic()
        [root] = hierarchy.roots()
        assert {"buffer_s", "buffer_t", "buffer_r", "buffer_m"} <= set(root.signal_clocks())
        assert hierarchy.same_class(ClockOf("x"), ClockTrue("buffer_t"))
        assert hierarchy.same_class(ClockOf("y"), ClockFalse("buffer_t"))
        x_class = hierarchy.class_of(ClockOf("x"))
        y_class = hierarchy.class_of(ClockOf("y"))
        assert hierarchy.dominates(root.index, x_class.index)
        assert hierarchy.dominates(root.index, y_class.index)
        assert not hierarchy.dominates(x_class.index, y_class.index)

    def test_composition_of_filter_and_merge_has_two_roots(self, filter_merge):
        analysis = ProcessAnalysis(filter_merge["composition"])
        assert analysis.root_count() == 2

    def test_ill_formed_hierarchy_detected(self):
        """The paper's ill-formed example: x = y and z | z = y when y constrains input y."""
        builder = ProcessBuilder("ill", inputs=["y"], outputs=["x"])
        builder.local("z")
        builder.define("z", signal("y").when(signal("y")))
        builder.define("x", signal("y").and_(signal("z")))
        analysis = ProcessAnalysis(normalize(builder.build()))
        assert not analysis.hierarchy.well_formed()
        assert any("true whenever present" in reason for reason in analysis.hierarchy.ill_formed_reasons())

    def test_describe_renders_forest(self, buffer_analysis):
        description = buffer_analysis.hierarchy.describe()
        assert "buffer_t^" in description
        assert "[buffer_t]" in description

    def test_subtree_signals(self, buffer_analysis):
        hierarchy = buffer_analysis.hierarchy
        [root] = hierarchy.roots()
        assert {"x", "y"} <= hierarchy.subtree_signals(root)


def _pairwise_sweep(algebra, clocks):
    """The reference constraint report: one entailment per pair of clocks."""
    return [
        (left, right)
        for index, left in enumerate(clocks)
        for right in clocks[index + 1 :]
        if algebra.entails_equal(left, right)
    ]


def _equality_check_designs():
    corpus = Corpus.load(Path(__file__).resolve().parent.parent / "corpus" / "corpus.json")
    yield from (entry.regenerate() for entry in corpus)
    yield from design_space(range(1000, 1200))


class TestImpliedEqualities:
    """The constraint report read off the hierarchy's rule-2 classes."""

    def test_implied_equalities_reports_producer_consumer_constraint(self, producer_consumer):
        analysis = ProcessAnalysis(producer_consumer["main"])
        equalities = analysis.hierarchy.implied_equalities(
            [ClockFalse("a"), ClockTrue("b"), ClockTrue("a"), ClockFalse("b")]
        )
        rendered = {
            (format_clock_expression(left), format_clock_expression(right))
            for left, right in equalities
        }
        assert ("[¬a]", "[b]") in rendered or ("[b]", "[¬a]") in rendered

    def test_classes_give_the_pairwise_sweep_over_corpus_and_sampled_designs(self):
        checked = 0
        for generated in _equality_check_designs():
            context = AnalysisContext()
            for process in (generated.composition,) + tuple(generated.components):
                analysis = context.analysis(process)
                clocks = _interesting_clocks(analysis.process)
                assert analysis.hierarchy.implied_equalities(clocks) == _pairwise_sweep(
                    analysis.algebra, clocks
                ), f"{generated.name}: {process.name}"
                checked += 1
        assert checked >= 260

    def test_unsatisfiable_relations_entail_every_equality(self, producer_consumer):
        # inferred relations always admit the silent instant, so the
        # unsatisfiable case is forced: R ⊨ c for every c, rule 2 puts
        # every clock in one class, and the report lists every pair exactly
        # as the pairwise sweep does
        process = producer_consumer["main"]
        algebra = ClockAlgebra(process, infer_timing_relations(process))
        algebra._unsatisfiable = True
        hierarchy = build_hierarchy(process, algebra.relations, algebra)
        clocks = _interesting_clocks(process)
        assert len(hierarchy.classes) == 1
        equalities = hierarchy.implied_equalities(clocks)
        assert equalities == _pairwise_sweep(algebra, clocks)
        assert len(equalities) == len(clocks) * (len(clocks) - 1) // 2

    def test_clocks_outside_the_hierarchy_are_refused(self, filter_analysis):
        with pytest.raises(ValueError, match="not a clock of the hierarchy"):
            filter_analysis.hierarchy.implied_equalities([ClockOf("y"), ClockOf("nosuch")])


def _unreduced_oracle(process, relations):
    """``equal(a, b)``: ``R ⊨ a = b`` on a fresh manager, with every clock
    relation, synchrony equalities included, encoded as its own conjunct."""
    manager = BDDManager(clock_variables(structural_order([process])))

    def encode(expression):
        if isinstance(expression, ClockEmpty):
            return manager.false
        if isinstance(expression, ClockOf):
            return manager.var(presence_variable(expression.name))
        if isinstance(expression, (ClockTrue, ClockFalse)):
            value = manager.var(value_variable(expression.name))
            if isinstance(expression, ClockFalse):
                value = ~value
            return manager.var(presence_variable(expression.name)) & value
        left, right = encode(expression.left), encode(expression.right)
        return {"and": left & right, "or": left | right, "diff": left & ~right}[
            expression.operator
        ]

    relation = manager.true
    for clock_relation in relations.clock_relations:
        relation = relation & encode(clock_relation.left).iff(encode(clock_relation.right))

    def equal(left, right):
        a, b = encode(left), encode(right)
        return manager.leq(relation, a.implies(b)) and manager.leq(relation, b.implies(a))

    return equal


def _synchrony_class_designs():
    for generated in design_space(range(300)):
        yield generated.name, generated.composition, list(generated.components)
    for family, size in (
        ("pipeline_network", 8),
        ("chain_of_buffers", 8),
        ("arbiter_tree", 3),
        ("mode_automaton", 6),
        ("independent_components", 8),
        ("clock_divider", 4),
        ("token_ring", 4),
    ):
        components, composition = getattr(topologies, family)(size)
        yield f"{family}_{size}", composition, list(components)
    chain = normalize(topologies.derivative_chain(24))
    yield "derivative_chain_24", chain, [chain]


class TestSynchronyClasses:
    """The algebra folds ``x^ = y^`` into the encoding; the hierarchy is the
    one the unreduced relation gives."""

    def test_classes_are_the_unreduced_relations_equalities(self):
        checked = 0
        for name, composition, components in _synchrony_class_designs():
            context = AnalysisContext()
            for process in [composition] + components:
                analysis = context.analysis(process)
                equal = _unreduced_oracle(analysis.process, analysis.relations)
                hierarchy = analysis.hierarchy
                # the oracle's partition: equality under R is an equivalence,
                # so each clock joins the first group whose head it equals
                groups = []
                for clock in _interesting_clocks(analysis.process):
                    for group in groups:
                        if equal(group[0], clock):
                            group.append(clock)
                            break
                    else:
                        groups.append([clock])
                assert [
                    [clock_key(member) for member in group] for group in groups
                ] == [
                    [clock_key(member) for member in clock_class.members]
                    for clock_class in hierarchy.classes
                ], f"{name}: {analysis.process.name}"
                checked += 1
        assert checked >= 1000

    def test_a_synchrony_chain_is_one_variable(self):
        process = normalize(topologies.derivative_chain(32))
        algebra = ClockAlgebra(process, infer_timing_relations(process))
        assert len(algebra._factors) == 1
        presences = {
            algebra.encode(ClockOf(name)) for name in process.all_signals() if name != "c"
        }
        assert len(presences) == 1


class TestNonConstructiveEntailment:
    """Entailment and feasibility intern no BDD node; rule 2 makes no query."""

    def test_queries_leave_the_unique_table_untouched(self):
        process = normalize(buffer_process())
        algebra = ClockAlgebra(process, infer_timing_relations(process))
        encoded = [algebra.encode(clock) for clock in _interesting_clocks(process)]
        constraints = [
            left.iff(right)
            for index, left in enumerate(encoded)
            for right in encoded[index + 1 :]
        ]
        manager = algebra.manager
        size = manager.size()
        answers = [
            (algebra.entails(constraint), algebra.feasible(constraint))
            for constraint in constraints
        ]
        assert manager.size() == size
        assert answers == [
            (
                algebra.constrained(~constraint).is_false(),
                algebra.constrained(constraint).is_satisfiable(),
            )
            for constraint in constraints
        ]

    def test_rule_2_classes_come_from_hash_consing_alone(self):
        process = normalize(buffer_process())
        algebra = ClockAlgebra(process, infer_timing_relations(process))
        stats = algebra.manager.stats()
        hierarchy = build_hierarchy(process, algebra.relations, algebra)
        after = algebra.manager.stats()
        assert after["leq_calls"] == stats["leq_calls"]
        assert after["intersects_calls"] == stats["intersects_calls"]
        assert hierarchy.same_class(ClockOf("x"), ClockTrue("buffer_t"))
        assert hierarchy.same_class(ClockOf("y"), ClockFalse("buffer_t"))


class TestDisjunctiveForm:
    def test_buffer_difference_is_eliminated(self, buffer_analysis):
        """E7: the difference r^ \\ y^ of ``current`` is rewritten on the value of t."""
        result = buffer_analysis.disjunctive
        assert result.is_disjunctive()
        eliminated = [rewrite for rewrite in result.rewrites if rewrite.eliminated()]
        assert eliminated, "the buffer's merge introduces at least one difference to eliminate"

    def test_filter_is_well_clocked(self, filter_normalized):
        assert is_well_clocked(filter_normalized)

    def test_unresolvable_difference_is_reported(self):
        """A merge of two unrelated inputs leaves z^ \\ y^ without a disjunctive form."""
        builder = ProcessBuilder("free_merge", inputs=["y", "z"], outputs=["x"])
        builder.define("x", signal("y").default(signal("z")))
        process = normalize(builder.build())
        analysis = ProcessAnalysis(process)
        assert not analysis.disjunctive.is_disjunctive()
        assert analysis.disjunctive.remaining_differences()
        assert not analysis.is_well_clocked()

    def test_well_clocked_composition_of_producer_consumer(self, producer_consumer):
        analysis = ProcessAnalysis(producer_consumer["main"])
        assert analysis.is_well_clocked()
