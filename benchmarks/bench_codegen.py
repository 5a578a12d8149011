"""E9 / E14 — code-generation and generated-code execution throughput.

Benchmarks the cost of generating step functions (the compilation time the
paper's methodology is designed to keep low by reusing Polychrony's existing
pipeline) and the runtime throughput of the generated code compared with the
interpreter on the same process, which quantifies what the sequential scheme
buys over direct interpretation.
"""

from _record import recorder, timed

from repro.codegen.runtime import StreamIO
from repro.codegen.sequential import compile_process
from repro.semantics.interpreter import SignalInterpreter

RECORD = recorder("codegen")

STREAM_LENGTH = 256


def test_compile_buffer(benchmark, paper_processes):
    compiled = benchmark(compile_process, paper_processes["buffer"])
    assert "def buffer_bind(io, state):" in compiled.python_source
    assert "bool buffer_iterate()" in compiled.c_source
    _compiled, seconds = timed(compile_process, paper_processes["buffer"])
    RECORD.record("compile buffer", seconds=seconds)


def test_compile_filter(benchmark, paper_processes):
    compiled = benchmark(compile_process, paper_processes["filter"])
    assert "def filter_bind(io, state):" in compiled.python_source
    assert "bool filter_iterate()" in compiled.c_source


def test_generated_buffer_throughput(benchmark, paper_processes):
    compiled = compile_process(paper_processes["buffer"])
    values = list(range(STREAM_LENGTH))

    def run():
        compiled.reset()
        io = StreamIO({"y": list(values)})
        compiled.run(io)
        return io.output("x")

    outputs = benchmark(run)
    assert outputs == values
    _outputs, seconds = timed(run)
    RECORD.record(f"generated buffer x{STREAM_LENGTH}", seconds=seconds)


def test_interpreted_buffer_throughput(benchmark, paper_processes):
    """Baseline: the same workload through the interpreter (expected slower)."""
    from repro.semantics.interpreter import ABSENT

    process = paper_processes["buffer"]
    values = list(range(STREAM_LENGTH))

    def run():
        interpreter = SignalInterpreter(process)
        outputs = []
        for value in values:
            interpreter.step({"y": value})
            result = interpreter.step({"y": ABSENT}, assume={"buffer_t": True})
            outputs.append(result.value("x"))
        return outputs

    outputs = benchmark(run)
    assert outputs == values


def test_generated_filter_throughput(benchmark, paper_processes):
    compiled = compile_process(paper_processes["filter"])
    stream = [bool(index % 3 == 0) for index in range(STREAM_LENGTH)]

    def run():
        compiled.reset()
        io = StreamIO({"y": list(stream)})
        compiled.run(io)
        return io.output("x")

    outputs = benchmark(run)
    assert len(outputs) > 0
