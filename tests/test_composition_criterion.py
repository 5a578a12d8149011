"""Tests of the compositional criterion (Definition 12 / Theorem 1) — E12, E13, E17, E18."""

import pytest

from repro.gen.topologies import (
    chain_of_buffers,
    independent_components,
    pipeline_network,
    star_network,
)
from repro.properties.compilable import ProcessAnalysis
from repro.properties.composition import check_weakly_hierarchic
from repro.properties.weak_endochrony import check_weak_endochrony


class TestProducerConsumer:
    def test_criterion_holds_for_main(self, producer_consumer):
        verdict = check_weakly_hierarchic(
            [producer_consumer["producer"], producer_consumer["consumer"]],
            composition_name="main",
        )
        assert verdict.components_endochronous()
        assert verdict.composition_well_clocked
        assert verdict.composition_acyclic
        assert verdict.weakly_hierarchic()
        assert verdict.weakly_endochronous()
        assert verdict.isochronous()

    def test_reported_constraint_is_the_paper_one(self, producer_consumer):
        verdict = check_weakly_hierarchic(
            [producer_consumer["producer"], producer_consumer["consumer"]],
            composition_name="main",
        )
        assert any(
            ("[¬a]" in constraint and "[b]" in constraint)
            for constraint in verdict.reported_constraints
        )

    def test_composition_is_not_endochronous_but_criterion_holds(self, producer_consumer):
        verdict = check_weakly_hierarchic(
            [producer_consumer["producer"], producer_consumer["consumer"]]
        )
        assert not verdict.endochronous_composition()
        assert verdict.weakly_hierarchic()

    def test_criterion_agrees_with_model_checking(self, producer_consumer):
        """Theorem 1 cross-checked: the statically validated composition passes Definition 2."""
        verdict = check_weakly_hierarchic(
            [producer_consumer["producer"], producer_consumer["consumer"]]
        )
        direct = check_weak_endochrony(producer_consumer["main"])
        assert verdict.weakly_endochronous() == direct.holds()

    def test_verdict_rendering(self, producer_consumer):
        verdict = check_weakly_hierarchic(
            [producer_consumer["producer"], producer_consumer["consumer"]],
            composition_name="main",
        )
        text = str(verdict)
        assert "weakly hierarchic" in text
        assert "producer" in text and "consumer" in text


class TestLTTA:
    """E12: the LTTA is isochronous but not endochronous."""

    def test_devices_are_endochronous(self, ltta_parts):
        for name, component in ltta_parts.items():
            analysis = ProcessAnalysis(component)
            assert analysis.is_compilable(), name
            assert analysis.is_hierarchic(), name

    def test_ltta_hierarchy_has_four_roots(self, ltta):
        analysis = ProcessAnalysis(ltta["ltta"])
        assert analysis.root_count() == 4

    def test_ltta_is_not_endochronous_but_weakly_hierarchic(self, ltta_parts, ltta):
        verdict = check_weakly_hierarchic(list(ltta_parts.values()), composition_name="ltta")
        assert verdict.weakly_hierarchic(), str(verdict)
        assert not verdict.endochronous_composition()

    def test_full_ltta_process_is_compilable(self, ltta):
        analysis = ProcessAnalysis(ltta["ltta"])
        assert analysis.is_compilable()


class TestSyntheticNetworks:
    def test_independent_components_satisfy_the_criterion(self):
        components, composition = independent_components(4)
        verdict = check_weakly_hierarchic(components, composition=composition)
        assert verdict.weakly_hierarchic()
        assert verdict.composition_roots == 4
        assert not verdict.reported_constraints

    def test_pipeline_satisfies_the_criterion_and_reports_constraints(self):
        components, composition = pipeline_network(3)
        verdict = check_weakly_hierarchic(components, composition=composition)
        assert verdict.weakly_hierarchic()
        assert verdict.reported_constraints  # [c_i] = [c_{i+1}]-style constraints

    def test_star_satisfies_the_criterion(self):
        components, composition = star_network(3)
        verdict = check_weakly_hierarchic(components, composition=composition)
        assert verdict.weakly_hierarchic()

    def test_buffer_chain_components_are_endochronous(self):
        components, composition = chain_of_buffers(3)
        for component in components:
            assert ProcessAnalysis(component).is_hierarchic()
        verdict = check_weakly_hierarchic(components, composition=composition)
        assert verdict.components_endochronous()
        assert verdict.composition_acyclic

    def test_criterion_rejects_non_endochronous_component(self, filter_merge, producer_consumer):
        """A multi-rooted component makes the criterion fail even if the whole is fine."""
        verdict = check_weakly_hierarchic(
            [filter_merge["composition"], producer_consumer["producer"]]
        )
        assert not verdict.weakly_hierarchic()

    def test_composition_name_names_the_composition(self, producer_consumer):
        verdict = check_weakly_hierarchic(
            [producer_consumer["producer"], producer_consumer["consumer"]],
            composition_name="main",
        )
        assert verdict.composition_name == "main"
        assert verdict.weakly_hierarchic()

    def test_criterion_requires_at_least_one_component(self):
        with pytest.raises(ValueError):
            check_weakly_hierarchic([])
