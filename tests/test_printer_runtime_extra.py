"""Additional unit coverage: primitive-equation printing, runtime helpers."""

import pytest

from repro.codegen.runtime import EndOfStream, RecordingIO, StreamIO, simulate
from repro.lang.ast import ClockOf, ClockTrue, Const
from repro.lang.normalize import (
    ClockEquation,
    DelayEquation,
    FunctionEquation,
    MergeEquation,
    SamplingEquation,
    normalize,
)
from repro.lang.printer import (
    format_clock,
    format_constant,
    format_normalized_process,
    format_primitive_equation,
)
from repro.library.basic import filter_process


class TestPrimitivePrinting:
    def test_constants(self):
        assert format_constant(True) == "true"
        assert format_constant(False) == "false"
        assert format_constant(3) == "3"

    def test_function_equation(self):
        equation = FunctionEquation("x", "+", ("a", Const(1)))
        assert format_primitive_equation(equation) == "x := a + 1"
        assert format_primitive_equation(FunctionEquation("x", "id", ("a",))) == "x := a"
        assert format_primitive_equation(FunctionEquation("x", "not", ("a",))) == "x := not a"

    def test_delay_sampling_merge(self):
        assert format_primitive_equation(DelayEquation("x", "y", 0)) == "x := y pre 0"
        assert (
            format_primitive_equation(SamplingEquation("x", Const(True), "c"))
            == "x := true when c"
        )
        assert format_primitive_equation(MergeEquation("x", "y", "z")) == "x := y default z"

    def test_clock_equation(self):
        equation = ClockEquation(ClockOf("x"), ClockTrue("t"))
        assert format_primitive_equation(equation) == "^x = [t]"
        assert format_clock(ClockOf("x")) == "^x"

    def test_normalized_process_listing(self):
        listing = format_normalized_process(normalize(filter_process()))
        assert "process filter" in listing
        assert "inputs:  y" in listing
        assert "x := true when" in listing


class TestRuntimeHelpers:
    def test_stream_io_availability(self):
        io = StreamIO({"a": [1], "b": []})
        assert io.available("a") and not io.available("b")
        assert io.remaining("a") == 1
        assert not io.exhausted()
        io.read("a")
        assert io.exhausted()

    def test_write_accumulates_in_order(self):
        io = StreamIO()
        io.write("x", 1)
        io.write("x", 2)
        assert io.output("x") == [1, 2]
        assert io.output("unknown") == []

    def test_simulate_respects_max_steps(self):
        io = StreamIO({"a": [1] * 10})

        def step(stream):
            stream.read("a")
            return True

        assert simulate(step, io, max_steps=3) == 3

    def test_recording_io_separates_steps(self):
        io = RecordingIO({"a": [1, 2]})
        io.read("a")
        io.end_step()
        io.read("a")
        io.write("x", 5)
        io.end_step()
        assert len(io.step_log) == 2
        assert io.step_log[1] == {"a": 2, "-> x": 5}
