"""Tests for the process library and the synthetic network generators."""

import pytest

from repro.lang.normalize import normalize
from repro.library.basic import buffer2_process, buffer_process, filter_process, merge_process
from repro.gen.topologies import (
    chain_of_buffers,
    independent_components,
    pipeline_network,
    star_network,
)
from repro.library.ltta import ltta_components
from repro.library.producer_consumer import normalized_suite
from repro.properties.compilable import ProcessAnalysis
from repro.semantics.interpreter import ABSENT, SignalInterpreter


class TestLibraryProcesses:
    def test_every_library_process_is_compilable(self, ltta_parts):
        processes = [
            normalize(filter_process()),
            normalize(merge_process()),
            normalize(buffer_process()),
            normalize(buffer2_process()),
        ]
        processes.extend(normalized_suite().values())
        processes.extend(ltta_parts.values())
        for process in processes:
            analysis = ProcessAnalysis(process)
            assert analysis.is_compilable(), process.name

    def test_filter_renaming_parameters(self):
        definition = filter_process(name="edge", input_name="sig", output_name="pulse")
        normalized = normalize(definition)
        assert normalized.inputs == ("sig",)
        assert normalized.outputs == ("pulse",)

    def test_buffer2_carries_value_and_flag_synchronously(self):
        process = normalize(buffer2_process())
        interpreter = SignalInterpreter(process)
        write = interpreter.step({"y": 42, "b": True})
        assert not write.present("x")
        read = interpreter.step({"y": ABSENT, "b": ABSENT}, assume={"buffer2_t": True})
        assert read.value("x") == 42
        assert read.value("c") is True

    def test_writer_alternates_flag(self, ltta_parts):
        writer = ltta_parts["writer"]
        interpreter = SignalInterpreter(writer)
        flags = []
        for value in (10, 20, 30):
            result = interpreter.step({"xw": value, "cw": True})
            assert result.value("yw") == value
            flags.append(result.value("bw"))
        assert flags == [False, True, False]

    def test_reader_extracts_on_flag_change(self, ltta_parts):
        reader = ltta_parts["reader"]
        interpreter = SignalInterpreter(reader)
        outputs = []
        # the flag changes at the 1st, 3rd and 4th samples
        samples = [(1, False), (2, False), (3, True), (4, False)]
        for value, flag in samples:
            result = interpreter.step({"yr": value, "br": flag, "cr": True})
            outputs.append(result.value("xr") if result.present("xr") else None)
        assert outputs == [1, None, 3, 4]


class TestGenerators:
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_independent_components_scale(self, size):
        components, composition = independent_components(size)
        assert len(components) == size
        analysis = ProcessAnalysis(composition)
        assert analysis.root_count() == size
        assert analysis.is_compilable()

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_pipeline_components_are_endochronous(self, length):
        components, composition = pipeline_network(length)
        assert len(components) == length
        for component in components:
            assert ProcessAnalysis(component).is_hierarchic()
        assert ProcessAnalysis(composition).is_compilable()

    def test_pipeline_signal_chaining(self):
        components, composition = pipeline_network(3)
        assert "x0" in composition.inputs
        assert "x3" in composition.outputs

    def test_star_network_shares_the_source_output(self):
        components, composition = star_network(2)
        assert "x" in components[0].outputs
        assert all("x" in component.inputs for component in components[1:])

    def test_chain_of_buffers_is_a_fifo_chain(self):
        components, composition = chain_of_buffers(2)
        assert len(components) == 2
        assert "y0" in composition.inputs
        assert "y2" in composition.outputs
