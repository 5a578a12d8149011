"""Tests for the compositional code generation scheme: controller (E14, E15) and threads (E16)."""

import random
import sys
import threading
import time

import pytest

from repro import Design

from repro.codegen.concurrent import ConcurrentComposition
from repro.codegen.controller import (
    ClockConstraintSpec,
    ClockLiteral,
    ControlledComposition,
    synthesize_controller,
)
from repro.codegen.runtime import StreamIO
from repro.codegen.sequential import compile_process
from repro.gen.topologies import sample_design
from repro.library.controllers import rendezvous_controller_process, scheduler_process
from repro.lang.normalize import normalize
from repro.properties.composition import check_weakly_hierarchic
from repro.semantics.interpreter import SignalInterpreter


def concurrent_flows(components, constraints, inputs):
    io = StreamIO({name: list(values) for name, values in inputs.items()})
    ConcurrentComposition(ControlledComposition(components, constraints)).run(io)
    return io.outputs


@pytest.fixture()
def compiled_pair(producer_consumer):
    producer = compile_process(producer_consumer["producer"])
    consumer = compile_process(producer_consumer["consumer"])
    verdict = check_weakly_hierarchic(
        [producer_consumer["producer"], producer_consumer["consumer"]], composition_name="main"
    )
    return producer, consumer, verdict


class TestControllerSynthesis:
    def test_constraint_is_synthesized_from_the_report(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        assert len(controlled.constraints) == 1
        constraint = controlled.constraints[0]
        assert {constraint.left.component, constraint.right.component} == {"producer", "consumer"}
        assert {constraint.left.signal, constraint.right.signal} == {"a", "b"}

    def test_interface_is_the_union_of_component_interfaces(self, compiled_pair):
        """Section 5.2: no master clock is added to the interface."""
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        assert set(controlled.external_inputs) == {"a", "b"}
        assert set(controlled.external_outputs) == {"u", "v"}

    def test_controlled_execution_matches_the_paper_run(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        io = StreamIO({"a": [True, False, True, False], "b": [False, True, False, True]})
        steps = controlled.run(io)
        assert steps == 4
        assert io.output("u") == [1, 2]
        assert io.output("v") == [1, 2, 3, 5]

    def test_controller_suspends_one_side_until_rendezvous(self, compiled_pair):
        """The producer arrives first (a = false) and must wait for b = true.

        While suspended it reads no further input (so ``a = true`` is never
        consumed) and the consumer keeps running freely; the shared ``x`` is
        transmitted only at the rendez-vous, in the third step.
        """
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        io = StreamIO({"a": [False, True], "b": [False, False, True]})
        controlled.run(io)
        assert io.output("v") == [1, 2, 3]
        assert io.output("u") == []
        # while suspended (steps 2 and 3) the producer read no further input:
        # only the trailing, post-rendez-vous step consumes the second value of a
        assert len(io.reads["a"]) <= 2

    def test_controlled_execution_matches_oracle_interpreter(self, compiled_pair, producer_consumer):
        """The controlled composition and the synchronous interpreter produce the same flows."""
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        a_stream = [True, False, False, True, False, True]
        b_stream = [False, True, True, False, True, False]
        io = StreamIO({"a": list(a_stream), "b": list(b_stream)})
        controlled.run(io)

        # Oracle: run the composed process synchronously, pairing the constrained
        # instants ([¬a] with [b]) exactly as the controller does.
        interpreter = SignalInterpreter(producer_consumer["main"])
        expected_u, expected_v = [], []
        a_queue, b_queue = list(a_stream), list(b_stream)
        while a_queue or b_queue:
            inputs = {}
            if a_queue:
                inputs["a"] = a_queue.pop(0)
            if b_queue:
                inputs["b"] = b_queue.pop(0)
            result = interpreter.step(inputs)
            if result.present("u"):
                expected_u.append(result.value("u"))
            if result.present("v"):
                expected_v.append(result.value("v"))
        assert io.output("u") == expected_u
        assert io.output("v") == expected_v

    def test_c_listing_mentions_rendezvous(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        listing = controlled.c_listing()
        assert "rendez-vous" in listing
        assert "producer_iterate()" in listing and "consumer_iterate()" in listing

    def test_c_listing_reads_ahead_only_constraint_literals(self):
        # arbiter_2 has no rendez-vous: its main loop reads no input itself,
        # each component's step reads its own
        deployment = Design.from_generated(sample_design(5)).compile("controlled")
        assert deployment.constraints == []
        listing = deployment.listing()
        for name in deployment.inputs:
            assert f"&{name})" not in listing
        for component in ("arb0_0", "arb1_0", "arb1_1"):
            assert f"{component}_iterate()" in listing

    def test_c_listing_reads_ahead_each_literal_once(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        listing = synthesize_controller([producer, consumer], verdict).c_listing()
        assert listing.count("(&a)") == listing.count("peek_a(&a)") == 1
        assert listing.count("(&b)") == listing.count("peek_b(&b)") == 1

    def test_reset_clears_pending_state(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        io = StreamIO({"a": [False], "b": [False]})
        controlled.run(io)
        controlled.reset()
        io2 = StreamIO({"a": [True], "b": [False]})
        controlled.run(io2)
        assert io2.output("u") == [1]


class TestMain2Compositionality:
    """E15: adding a third endochronous component only needs one more controller."""

    def test_main2_criterion_and_controller(self, producer_consumer):
        components = [
            producer_consumer["producer"],
            producer_consumer["consumer"],
        ]
        verdict = check_weakly_hierarchic(components, composition_name="main")
        assert verdict.weakly_hierarchic()
        # main2 = main | consumer(c, v): analysed as a whole it stays compilable
        from repro.properties.compilable import ProcessAnalysis

        analysis = ProcessAnalysis(producer_consumer["main2"])
        assert analysis.is_compilable()
        assert analysis.root_count() >= 2


class TestConcurrentScheme:
    """E16: the thread + barrier variant produces the same flows."""

    def test_concurrent_execution_matches_sequential_controller(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        inputs = {"a": [True, False, True, False], "b": [False, True, False, True]}

        sequential_io = StreamIO({name: list(values) for name, values in inputs.items()})
        controlled.run(sequential_io)

        producer.reset()
        consumer.reset()
        concurrent_outputs = concurrent_flows(
            [producer, consumer], controlled.constraints, inputs
        )
        assert concurrent_outputs.get("u") == sequential_io.output("u")
        assert concurrent_outputs.get("v") == sequential_io.output("v")

    def test_a_component_error_is_raised_once_every_thread_stopped(self, compiled_pair):
        producer, consumer, _verdict = compiled_pair

        def failing_step(io):
            raise ValueError("consumer failed")

        consumer.step = failing_step
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match="consumer failed"):
            concurrent_flows([producer, consumer], [], {"a": [True], "b": [True]})
        assert threading.active_count() == threads_before

    def test_concurrent_composition_without_constraints_runs_freely(self, producer_consumer):
        producer = compile_process(producer_consumer["producer"])
        outputs = concurrent_flows([producer], [], {"a": [True, True, False]})
        assert outputs.get("u") == [1, 2]


T, F = True, False


def _section52_flows(design, inputs, max_steps=1_000_000):
    """The controlled and the concurrent flows of ``design`` on ``inputs``."""
    controlled = design.compile("controlled").run(inputs, max_steps=max_steps)
    concurrent = design.compile("concurrent").run(inputs, max_steps=max_steps)
    return controlled, concurrent


class TestSection52Flows:
    """Both vehicles run one schedule and agree with the synchronous flows."""

    def test_a_step_reads_only_what_it_consumes(self):
        """An arbiter reads ``r0`` on ``[s1_0]`` and ``r1`` on ``[¬s1_0]`` only."""
        arbiter = next(c for c in sample_design(5).components if c.name == "arb1_0")
        design = Design.from_process(arbiter)
        inputs = {"s1_0": [T, F, T], "r0": [1, 2, 3], "r1": [4, 5, 6]}
        assert design.compile("sequential").run(inputs) == {"g1_0": [1, 4, 2]}
        controlled, concurrent = _section52_flows(design, inputs)
        assert controlled == concurrent == {"g1_0": [1, 4, 2]}

    def test_a_shared_value_lasts_one_global_step(self):
        """Two dividers: the second one sees every other value of ``k1``."""
        design = Design.from_generated(sample_design(0))
        inputs = {"k0": [3, 3, 0, 2, 3, 3]}
        assert design.compile("sequential").run(inputs)["k2"] == [3, 3]
        controlled, concurrent = _section52_flows(design, inputs)
        assert controlled == concurrent == {"k2": [3, 3]}

    def test_buffer_chain_forwards_a_prefix_of_its_input(self):
        design = Design.from_generated(sample_design(21))
        controlled, concurrent = _section52_flows(design, {"y0": [T, F, F, T, T, F]})
        assert controlled == concurrent == {"y2": [T, F, F, T, T]}

    def test_crossbar_pairs_the_rendezvous_instants(self):
        """``[p0] = [e0_0] = [e0_1]``: the k-th true of each side meet."""
        design = Design.from_generated(sample_design(47))
        inputs = {"p0": [T, F, T], "e0_0": [F, T, F, T], "e0_1": [T, T]}
        controlled, concurrent = _section52_flows(design, inputs)
        assert controlled == concurrent == {"y0": [1, 2], "y1": [2, 3]}

    def test_a_global_step_without_progress_ends_the_run(self):
        """A ring's stations each wait for the previous one's token, so none
        steps; the state then repeats, and the run ends instead of spinning
        to the step bound."""
        design = Design.from_generated(sample_design(26))
        deployment = design.compile("concurrent")
        inputs = {name: [T] * 6 for name in deployment.inputs}
        io = StreamIO(inputs)
        assert design.compile("controlled").controlled.run(io) == 1
        started = time.perf_counter()
        assert deployment.run(inputs) == {}
        assert time.perf_counter() - started < 1.0

    def test_concurrent_equals_controlled_on_sampled_designs(self):
        """Seeds 0-119: equal, repeatable and prompt concurrent runs.

        Rings have no external input and stop only at the step bound, so
        every run is bounded at 50 global steps.
        """
        checked = 0
        for seed in range(120):
            generated = sample_design(seed)
            if len(generated.components) < 2:
                continue
            design = Design.from_generated(generated)
            if not design.criterion().weakly_hierarchic():
                continue
            rng = random.Random(seed)
            boolean = set(design.composition.boolean_signals())
            deployment = design.compile("concurrent")
            inputs = {
                name: [rng.random() < 0.5 if name in boolean else rng.randrange(10) for _ in range(6)]
                for name in deployment.inputs
            }
            expected = design.compile("controlled").run(inputs, max_steps=50)
            for _ in range(3):
                started = time.perf_counter()
                assert deployment.run(inputs, max_steps=50) == expected, generated.name
                assert time.perf_counter() - started < 1.0, generated.name
            checked += 1
        assert checked == 96


    def test_concurrent_runs_agree_under_fast_thread_switching(self):
        """Eight threads on a 2x2 crossbar, switching every microsecond."""
        design = Design.from_generated(sample_design(16))
        rng = random.Random(16)
        deployment = design.compile("concurrent")
        inputs = {name: [rng.random() < 0.7 for _ in range(24)] for name in deployment.inputs}
        expected = design.compile("controlled").run(inputs)
        outcomes = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: outcomes.extend(deployment.run(inputs) for _ in range(20)),
                daemon=True,
            )
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert outcomes == [expected] * 20
        assert any(expected.values())


class TestSignalLevelControllers:
    def test_rendezvous_controller_fires_when_both_sides_arrived(self):
        process = normalize(rendezvous_controller_process())
        interpreter = SignalInterpreter(process)
        # a arrives first, b later: the grant fires at the second instant
        first = interpreter.step({"ta": True, "tb": False})
        assert first.value("ga") is False
        second = interpreter.step({"ta": False, "tb": True})
        assert second.value("ga") is True and second.value("gb") is True
        third = interpreter.step({"ta": False, "tb": False})
        assert third.value("ga") is False

    def test_rendezvous_controller_immediate_fire(self):
        process = normalize(rendezvous_controller_process())
        interpreter = SignalInterpreter(process)
        result = interpreter.step({"ta": True, "tb": True})
        assert result.value("ga") is True

    def test_scheduler_process_is_endochronous(self):
        from repro.properties.endochrony import verify_endochrony

        assert verify_endochrony(normalize(scheduler_process())).holds
        assert verify_endochrony(normalize(rendezvous_controller_process())).holds
