"""Topology families and the seeded design sampler."""

import random

import pytest

from repro.gen.topologies import (
    FAMILIES,
    arbiter_tree,
    chain_of_buffers,
    clock_divider,
    crossbar,
    design_space,
    mode_automaton,
    pipeline_network,
    random_network,
    sample_design,
    star_network,
    token_ring,
)
from repro.lang.printer import canonical_digest
from repro.properties.compilable import ProcessAnalysis


class TestStructuralFamilies:
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_token_ring_scales(self, size):
        components, composition = token_ring(size)
        assert len(components) == size
        assert ProcessAnalysis(composition).summary()

    def test_token_ring_rejects_degenerate_size(self):
        with pytest.raises(ValueError):
            token_ring(1)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_arbiter_tree_component_count(self, depth):
        components, composition = arbiter_tree(depth)
        assert len(components) == 2 ** depth - 1
        for component in components:
            assert ProcessAnalysis(component).is_hierarchic()

    def test_arbiter_tree_root_grant_is_an_output(self):
        _, composition = arbiter_tree(2)
        assert "g0_0" in composition.outputs

    @pytest.mark.parametrize("sources,sinks", [(1, 1), (2, 2)])
    def test_crossbar_component_count(self, sources, sinks):
        components, composition = crossbar(sources, sinks)
        assert len(components) == sources + sources * sinks + sinks
        assert set(f"y{j}" for j in range(sinks)) <= set(composition.outputs)

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_clock_divider_depth(self, stages):
        components, composition = clock_divider(stages)
        assert len(components) == stages
        assert "k0" in composition.inputs
        assert f"k{stages}" in composition.outputs

    def test_divider_stage_is_endochronous(self):
        components, _ = clock_divider(1)
        assert ProcessAnalysis(components[0]).is_hierarchic()

    @pytest.mark.parametrize("modes", [2, 3])
    def test_mode_automaton_outputs_per_mode(self, modes):
        _, composition = mode_automaton(modes)
        assert {f"modes_y{j}" for j in range(modes)} <= set(composition.outputs)

    def test_random_network_is_seeded(self):
        first = random_network(random.Random(9), size=3)
        second = random_network(random.Random(9), size=3)
        assert canonical_digest(first[0]) == canonical_digest(second[0])


class TestSampledDesigns:
    def test_sample_design_is_deterministic(self):
        first = sample_design(17)
        second = sample_design(17)
        assert first.family == second.family
        assert canonical_digest(first.components) == canonical_digest(second.components)

    def test_design_space_covers_many_families(self):
        families = {design.family for design in design_space(range(40))}
        assert len(families) >= 6

    def test_every_family_is_reachable_by_restriction(self):
        for family in FAMILIES:
            design = sample_design(0, families=(family,))
            assert design.family == family
            assert design.components

    def test_generated_design_carries_provenance(self):
        design = sample_design(4)
        assert design.seed == 4
        assert design.name.endswith("_s4")
        assert isinstance(design.params, dict)

    def test_design_method_bridges_to_the_api(self):
        generated = sample_design(1)
        design = generated.design()
        assert design.digest()
        assert len(design.components) == len(generated.components)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            sample_design(0, families=("hypercube",))


class TestBenchmarkFamilies:
    """The benchmark families keep the interface shapes they have always had."""

    def test_migrated_families_behave_as_before(self):
        components, composition = pipeline_network(3)
        assert len(components) == 3
        assert "x0" in composition.inputs and "x3" in composition.outputs
        components, composition = star_network(2)
        assert "x" in components[0].outputs
        components, composition = chain_of_buffers(2)
        assert "y0" in composition.inputs and "y2" in composition.outputs
