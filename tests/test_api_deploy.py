"""Design.compile: the four deployment schemes behind one interface."""

from __future__ import annotations

import pytest

from repro import Design
from repro.api.deploy import (
    ConcurrentDeployment,
    ControlledDeployment,
    DeploymentError,
    LttaDeployment,
    SequentialDeployment,
)
from repro.codegen.runtime import StreamIO
from repro.gen.topologies import pipeline_network
from repro.library.ltta import ltta_components
from repro.library.producer_consumer import normalized_suite
from repro.obs import metrics as obs_metrics

INPUTS = {"a": [True, False, True, False], "b": [False, True, False, True]}
EXPECTED_U = [1, 2]
EXPECTED_V = [1, 2, 3, 5]


@pytest.fixture(scope="module")
def main_design():
    suite = normalized_suite()
    return Design(name="main", components=[suite["producer"], suite["consumer"]])


class TestSequential:
    def test_single_component_step_function(self):
        components, _ = pipeline_network(1)
        design = Design(name="relay", components=list(components))
        deployment = design.compile("sequential")
        assert isinstance(deployment, SequentialDeployment)
        flows = deployment.run({"x0": [1, 2, 3], "c0": [True] * 3})
        assert flows["x1"] == [2, 3, 4]
        assert "relay_iterate" in deployment.listing()

    def test_multi_rooted_design_needs_master_clocks(self, main_design):
        from repro.codegen.sequential import CodeGenerationError

        with pytest.raises(CodeGenerationError):
            main_design.compile("sequential")
        deployment = main_design.compile("sequential", master_clocks=True)
        assert deployment.master_clock_inputs  # Section 5.1's C_<root> inputs

    def test_run_is_repeatable_after_reset(self):
        components, _ = pipeline_network(1)
        design = Design(name="relay", components=list(components))
        deployment = design.compile("sequential")
        first = deployment.run({"x0": [5], "c0": [True]})
        second = deployment.run({"x0": [5], "c0": [True]})
        assert first == second


class TestControlled:
    def test_producer_consumer_flows(self, main_design):
        deployment = main_design.compile("controlled")
        assert isinstance(deployment, ControlledDeployment)
        flows = deployment.run(INPUTS)
        assert flows["u"] == EXPECTED_U
        assert flows["v"] == EXPECTED_V

    def test_rendezvous_constraints_synthesized(self, main_design):
        deployment = main_design.compile("controlled")
        assert deployment.constraints  # [¬a] = [b]
        assert "main_iterate" in deployment.listing()

    def test_stepwise_execution(self, main_design):
        deployment = main_design.compile("controlled")
        deployment.reset()
        io = StreamIO({name: list(values) for name, values in INPUTS.items()})
        steps = 0
        while deployment.step(io):
            steps += 1
        assert steps >= len(INPUTS["a"])
        assert io.output("v") == EXPECTED_V


class TestConcurrent:
    def test_same_flows_as_controlled(self, main_design):
        deployment = main_design.compile("concurrent")
        assert isinstance(deployment, ConcurrentDeployment)
        flows = deployment.run(INPUTS)
        assert flows["u"] == EXPECTED_U
        assert flows["v"] == EXPECTED_V

    def test_run_counts_its_global_steps(self, main_design):
        labels = {"strategy": "concurrent", "runtime": "specialized"}
        before = obs_metrics.GLOBAL.get_value("repro_deploy_steps_total", labels) or 0
        main_design.compile("concurrent").run(INPUTS)
        after = obs_metrics.GLOBAL.get_value("repro_deploy_steps_total", labels)
        assert after - before == 4  # the controlled run of INPUTS takes 4 steps

    def test_step_is_rejected_with_guidance(self, main_design):
        deployment = main_design.compile("concurrent")
        with pytest.raises(DeploymentError):
            deployment.step(StreamIO({}))


class TestLtta:
    def test_unit_paces_match_sequential_pipeline(self):
        components, _ = pipeline_network(3)
        design = Design(name="pipe", components=list(components))
        ltta = design.compile("ltta")
        assert isinstance(ltta, LttaDeployment)
        n = 4
        feed = {
            "x0": [1, 2, 3, 4],
            "c0": [True] * n,
            "c1": [True] * n,
            "c2": [True] * n,
        }
        assert ltta.run(feed)["x3"] == [4, 5, 6, 7]

    def test_alternating_flag_absorbs_oversampling(self):
        """An LTTA reader paced faster than the writer still gets each value once."""
        parts = ltta_components()
        design = Design(
            name="ltta",
            components=[parts["writer"], parts["bus_stage1"], parts["bus_stage2"], parts["reader"]],
        )
        assert design.verify("weakly-hierarchic").holds
        # Deploy writer → sustained latch → reader (the latch plays the bus);
        # the reader samples the latch twice per written value and the
        # alternating flag extracts each value exactly once.  The reader is
        # rebuilt on the writer's signal names, since the library's bus stages
        # rename yw/bw to yr/br along the way.
        from repro.lang.builder import ProcessBuilder, signal, tick, when_true
        from repro.library.basic import filter_process

        builder = ProcessBuilder("reader", inputs=["yw", "bw", "cr"], outputs=["xr"])
        builder.local("fr")
        builder.instantiate("filter", [signal("bw")], ["fr"])
        builder.define("xr", signal("yw").when(signal("fr")))
        builder.constrain(tick("yw"), tick("bw"), when_true("cr"))
        pair = Design(
            name="wr",
            components=[parts["writer"]],
            registry={"filter": filter_process()},
        ).add_component(builder.build())
        deployment = pair.compile("ltta", paces={"writer": 2, "reader": 1})
        samples = 4
        flows = deployment.run(
            {
                "xw": [100 + i for i in range(samples)],
                "cw": [True] * samples,
                "cr": [True] * (2 * samples),
            }
        )
        assert flows["xr"] == [100 + i for i in range(samples)]

    def test_listing_mentions_paces_and_bus(self):
        components, _ = pipeline_network(2)
        design = Design(name="pipe", components=list(components))
        listing = design.compile("ltta", paces={"relay1": 2}).listing()
        assert "t % 2" in listing and "bus_" in listing


class TestStrategyDispatch:
    def test_unknown_strategy(self, main_design):
        with pytest.raises(DeploymentError):
            main_design.compile("distributed")

    def test_compositional_schemes_require_endochronous_components(self):
        suite = normalized_suite()
        # `main` itself has two roots: not endochronous, so it cannot be a
        # separately compiled component of the Section 5.2 schemes.
        design = Design(name="bad", components=[suite["main"]])
        with pytest.raises(DeploymentError):
            design.compile("controlled")

    def test_all_strategies_share_session_analyses(self, main_design):
        before = main_design.context.stats()["analyses"]
        main_design.compile("controlled")
        main_design.compile("concurrent")
        after = main_design.context.stats()["analyses"]
        assert after == before  # compiling added no new analysis work
