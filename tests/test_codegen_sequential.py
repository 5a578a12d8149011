"""Tests for sequential code generation (E9, E13): generated code vs. interpreter oracle."""

import pytest

from repro.codegen.runtime import EndOfStream, RecordingIO, StreamIO, simulate
from repro.codegen.sequential import (
    CodeGenerationError,
    build_step_program,
    compile_process,
    render_c_source,
)
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_process, merge_process
from repro.properties.compilable import ProcessAnalysis
from repro.semantics.interpreter import ABSENT, SignalInterpreter


class TestRuntime:
    def test_stream_io_reads_in_order_and_records(self):
        io = StreamIO({"a": [1, 2]})
        assert io.read("a") == 1
        assert io.read("a") == 2
        with pytest.raises(EndOfStream):
            io.read("a")
        io.write("x", 9)
        assert io.output("x") == [9]
        assert io.reads["a"] == [1, 2]

    def test_recording_io_logs_steps(self):
        io = RecordingIO({"a": [1]})
        io.read("a")
        io.write("x", 2)
        io.end_step()
        assert io.step_log == [{"a": 1, "-> x": 2}]

    def test_simulate_stops_at_end_of_stream(self):
        compiled = compile_process(normalize(filter_process()))
        io = StreamIO({"y": [True, False]})
        steps = simulate(compiled.step, io)
        assert steps == 2


class TestBufferCodegen:
    """E9: the buffer's transition function."""

    def test_buffer_streams_values_through(self):
        compiled = compile_process(normalize(buffer_process()))
        io = StreamIO({"y": [10, 20, 30, 40]})
        steps = compiled.run(io)
        assert io.output("x") == [10, 20, 30, 40]
        assert steps == 8  # one read step and one emit step per value

    def test_buffer_python_listing_structure(self):
        compiled = compile_process(normalize(buffer_process()))
        assert "def buffer_bind(io, state):" in compiled.python_source
        assert "_r_y = _reader(io, 'y')" in compiled.python_source
        assert "_w_x(v_x)" in compiled.python_source

    def test_buffer_c_listing_matches_paper_shape(self):
        """The generated C-like code reads y at [¬t], writes x at [t], updates s."""
        compiled = compile_process(normalize(buffer_process()))
        assert "bool buffer_iterate()" in compiled.c_source
        assert "r_buffer_y(&y)" in compiled.c_source
        assert "w_buffer_x(x)" in compiled.c_source
        assert "return TRUE;" in compiled.c_source

    def test_reset_restores_initial_state(self):
        compiled = compile_process(normalize(buffer_process()))
        io = StreamIO({"y": [1]})
        compiled.run(io)
        compiled.reset()
        assert compiled.state == compiled.initial_state


BUFFER_C = """\
bool buffer_iterate() {
  C_buffer_m = TRUE;
  C_buffer_r = C_buffer_m;
  C_buffer_s = TRUE;
  C_buffer_t = C_buffer_s;
  if (C_buffer_t) buffer_t = (!buffer_s);
  C_x = (C_buffer_r && (C_buffer_t && buffer_t));
  C_y = (C_buffer_t && !buffer_t);
  if (C_y) {
    if (!r_buffer_y(&y)) return FALSE;
  }
  if (C_buffer_r) buffer_r = (C_y ? y : buffer_m);
  if (C_x) x = buffer_r;
  if (C_x) w_buffer_x(x);
  if (C_buffer_t) buffer_s = buffer_t;
  if (C_buffer_r) buffer_m = buffer_r;
  return TRUE;
}
"""

FILTER_C = """\
bool filter_iterate() {
  C__x_cond_1 = TRUE;
  C_x_prev = C__x_cond_1;
  C_y = C__x_cond_1;
  if (C_y) {
    if (!r_filter_y(&y)) return FALSE;
  }
  if (C__x_cond_1) _x_cond_1 = (y != x_prev);
  C_x = (C__x_cond_1 && _x_cond_1);
  if (C_x) x = TRUE;
  if (C_x) w_filter_x(x);
  if (C_y) x_prev = y;
  return TRUE;
}
"""


class TestListings:
    """The C printer's output on the paper's processes, byte for byte."""

    @pytest.mark.parametrize(
        "factory,listing", [(buffer_process, BUFFER_C), (filter_process, FILTER_C)]
    )
    def test_paper_listing_is_pinned(self, factory, listing):
        compiled = compile_process(normalize(factory()))
        assert compiled.c_source == listing
        assert render_c_source(build_step_program(normalize(factory()))) == listing


class TestOracleEquivalence:
    """Generated code must agree with the interpreter on every reaction."""

    def test_filter_matches_interpreter(self):
        process = normalize(filter_process())
        compiled = compile_process(process)
        interpreter = SignalInterpreter(process)
        stream = [True, True, False, True, False, False, True]
        io = StreamIO({"y": list(stream)})
        generated = []
        while compiled.step(io):
            pass
        generated = io.output("x")
        expected = []
        for value in stream:
            result = interpreter.step({"y": value})
            if result.present("x"):
                expected.append(result.value("x"))
        assert generated == expected

    def test_merge_matches_interpreter(self):
        process = normalize(merge_process())
        compiled = compile_process(process)
        interpreter = SignalInterpreter(process)
        pattern = [(True, 1, None), (False, None, 7), (True, 2, None), (False, None, 8)]
        io_inputs = {
            "c": [c for c, _, _ in pattern],
            "y": [y for _, y, _ in pattern if y is not None],
            "z": [z for _, _, z in pattern if z is not None],
        }
        io = StreamIO(io_inputs)
        compiled.run(io)
        expected = []
        for c, y, z in pattern:
            inputs = {"c": c, "y": y if y is not None else ABSENT, "z": z if z is not None else ABSENT}
            result = interpreter.step(inputs)
            if result.present("d"):
                expected.append(result.value("d"))
        assert io.output("d") == expected

    def test_counter_state_is_preserved_across_steps(self):
        builder = ProcessBuilder("counter", inputs=["c"], outputs=["n"])
        builder.constrain(tick("n"), when_true("c"))
        builder.define("n", const(1) + signal("n").pre(0))
        compiled = compile_process(normalize(builder.build()))
        io = StreamIO({"c": [True, False, True, True, False]})
        compiled.run(io)
        assert io.output("n") == [1, 2, 3]


class TestMultiRootHandling:
    def test_multi_root_process_is_rejected_by_default(self, filter_merge):
        with pytest.raises(CodeGenerationError):
            compile_process(filter_merge["composition"])

    def test_not_compilable_process_is_rejected(self):
        builder = ProcessBuilder("loop", inputs=[], outputs=["x", "y"])
        builder.define("x", signal("y") + 0)
        builder.define("y", signal("x") + 0)
        with pytest.raises(CodeGenerationError):
            compile_process(normalize(builder.build()))

    def test_master_clock_scheme_reproduces_section_5_1(self, producer_consumer):
        """E13: Polychrony's current scheme adds the synchronized inputs C_a and C_b."""
        compiled = compile_process(
            ProcessAnalysis(producer_consumer["main"]), master_clocks=True
        )
        assert set(compiled.master_clock_inputs) == {"C_a", "C_b"}
        io = StreamIO(
            {
                "C_a": [True, True, True, True],
                "C_b": [True, True, True, True],
                "a": [True, False, True, False],
                "b": [False, True, False, True],
            }
        )
        compiled.run(io)
        assert io.output("u") == [1, 2]
        assert io.output("v") == [1, 2, 3, 5]

    def test_master_clock_scheme_can_idle_components(self, producer_consumer):
        compiled = compile_process(
            ProcessAnalysis(producer_consumer["main"]), master_clocks=True
        )
        io = StreamIO(
            {
                "C_a": [True, False],
                "C_b": [False, True],
                "a": [True],
                "b": [False],
            }
        )
        compiled.run(io)
        assert io.output("u") == [1]
        assert io.output("v") == [1]
