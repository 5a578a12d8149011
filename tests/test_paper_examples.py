"""End-to-end reproduction of the paper's worked examples (E1-E4, E10).

Each test states which example of the paper it reproduces; EXPERIMENTS.md
indexes them.
"""

import pytest

from repro.mocc.behaviors import clock_equivalent, flow_equivalent
from repro.properties.compilable import ProcessAnalysis
from repro.properties.endochrony import check_endochrony_on_traces, verify_endochrony
from repro.semantics.denotational import behavior_from_run, run_to_completion
from repro.semantics.environment import ReactiveEnvironment
from repro.semantics.interpreter import ABSENT, SignalInterpreter


class TestSection1Filter:
    """E1: x = filter(y) emits x every time the value of y changes."""

    def test_filter_trace(self, filter_normalized):
        interpreter = SignalInterpreter(filter_normalized)
        inputs = [True, False, False, True]
        xs = []
        for value in inputs:
            result = interpreter.step({"y": value})
            xs.append(result.value("x") if result.present("x") else None)
        # x is present at t2 and t4 with value true (paper writes 1)
        assert xs == [None, True, None, True]

    def test_filter_is_endochronous_statically(self, filter_normalized):
        assert verify_endochrony(filter_normalized).holds

    def test_filter_is_endochronous_on_traces(self, filter_normalized):
        """Definition 1 checked on flow-equivalent inputs, as in Section 4's example."""
        report = check_endochrony_on_traces(
            filter_normalized, {"y": [True, False, False, True]}, max_instants=6
        )
        assert report.holds


class TestSection1Merge:
    """E2: the merge is endochronous, but its composition with filter is not."""

    def test_merge_is_endochronous(self, filter_merge):
        assert verify_endochrony(filter_merge["merge"]).holds

    def test_merge_trace(self, filter_merge):
        """d follows c's value: y when c is true, z when c is false (paper's Section 1 trace)."""
        interpreter = SignalInterpreter(filter_merge["merge"])
        steps = [
            {"c": False, "z": True, "x": ABSENT},
            {"c": True, "x": True, "z": ABSENT},
            {"c": True, "x": True, "z": ABSENT},
            {"c": False, "z": False, "x": ABSENT},
        ]
        outputs = [interpreter.step(step).value("d") for step in steps]
        assert outputs == [True, True, True, False]

    def test_composition_is_not_endochronous(self, filter_merge):
        analysis = ProcessAnalysis(filter_merge["composition"])
        assert analysis.is_compilable()
        assert not analysis.is_hierarchic()
        assert not verify_endochrony(filter_merge["composition"], analysis).holds

    def test_composition_roots_are_the_two_pacing_inputs(self, filter_merge):
        analysis = ProcessAnalysis(filter_merge["composition"])
        root_signals = {name for signals in analysis.hierarchy.root_signals() for name in signals}
        assert "y" in root_signals
        assert "c" in root_signals


class TestSection2FilterSemantics:
    """E4: the six-instant denotational trace of Section 2.2."""

    def test_six_instant_trace(self, filter_normalized):
        environment = ReactiveEnvironment(
            ["y"], [{"y": v} for v in [True, False, False, True, True, False]]
        )
        results = run_to_completion(filter_normalized, environment)
        behavior = behavior_from_run(results, ["x", "y"])
        assert behavior["y"].values == (True, False, False, True, True, False)
        # x is present at tags 1, 3, 5 (the paper's t2, t4, t6), always true
        assert behavior["x"].tags == (1, 3, 5)
        assert behavior["x"].values == (True, True, True)

    def test_flow_equivalent_inputs_give_clock_equivalent_behaviors(self, filter_normalized):
        """The endochrony argument of Section 3.7 / Definition 1, on two different timings."""
        dense = ReactiveEnvironment(["y"], [{"y": v} for v in [True, False, False, True]])
        sparse = ReactiveEnvironment(
            ["y"],
            [
                {"y": True},
                {},
                {"y": False},
                {},
                {"y": False},
                {"y": True},
            ],
        )
        dense_behavior = behavior_from_run(
            run_to_completion(filter_normalized, dense), ["x", "y"], drop_silent=True
        )
        sparse_behavior = behavior_from_run(
            run_to_completion(filter_normalized, sparse), ["x", "y"], drop_silent=True
        )
        assert flow_equivalent(
            dense_behavior.restrict(["y"]), sparse_behavior.restrict(["y"])
        )
        assert clock_equivalent(dense_behavior, sparse_behavior)


class TestSection4Hierarchies:
    """E10: filter and buffer hierarchies are single-rooted (endochronous)."""

    def test_filter_single_root(self, filter_analysis):
        assert filter_analysis.hierarchy.root_count() == 1

    def test_buffer_single_root(self, buffer_analysis):
        assert buffer_analysis.hierarchy.root_count() == 1

    def test_buffer_is_endochronous(self, buffer_normalized, buffer_analysis):
        assert verify_endochrony(buffer_normalized, buffer_analysis).holds

    def test_buffer_alternates_read_and_emit(self, buffer_normalized):
        """Section 3.7: the buffer always alternates receiving y and sending x."""
        interpreter = SignalInterpreter(buffer_normalized)
        values = [1, 2, 3]
        observed = []
        iterator = iter(values)
        for step in range(6):
            if step % 2 == 0:
                result = interpreter.step({"y": next(iterator)})
                assert not result.present("x")
            else:
                result = interpreter.step({"y": ABSENT}, assume={"buffer_t": True})
                assert result.present("x")
                observed.append(result.value("x"))
        assert observed == values
