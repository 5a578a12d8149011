"""The runtime tiers: differential coverage and hot-path IO.

The exec tier (``runtime="specialized"``, :func:`compile_process`) binds IO
callables and delay registers into one exec-compiled closure per process;
the per-op dispatch interpreter is the reference it is measured against, and
the batched tier runs the same program on numpy lanes.  Every test here pins
the tier contract: *identical flows* across ``specialized`` /
``interpreter`` / ``batched`` for the same design and inputs.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import Design
from repro.api.deploy import RUNTIMES, DeploymentError
from repro.codegen.batch import numpy_available
from repro.codegen.interpreted import InterpretedProcess, compile_interpreted
from repro.codegen.runtime import EndOfStream, RecordingIO, StreamIO
from repro.codegen.sequential import (
    CodeGenerationError,
    CompiledProcess,
    build_step_program,
    compile_process,
    render_bind_source,
)
from repro.gen.corpus import Corpus
from repro.gen.topologies import sample_design
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_process
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.properties import compilable
from repro.semantics.interpreter import ClockError, SignalInterpreter, UnderdeterminedError

CORPUS = Corpus.load(Path(__file__).resolve().parent.parent / "corpus" / "corpus.json")


@pytest.fixture
def clean_obs():
    obs_trace.reset()
    obs_metrics.reset_global()
    yield
    obs_trace.reset()
    obs_metrics.reset_global()


def run_io(engine, inputs):
    engine.reset()
    io = StreamIO({name: list(values) for name, values in inputs.items()})
    steps = engine.run(io)
    return steps, {name: io.output(name) for name in engine.outputs}


def run_lane(process, inputs):
    """One lane of the batched tier, as ``(steps, outputs)`` like :func:`run_io`."""
    deployment = Design(name=process.name, components=[process]).compile(
        "sequential", runtime="batched"
    )
    fleet = deployment.run_many([inputs])
    return fleet.steps[0], fleet.outputs[0]


class TestStreamIOHotPath:
    def test_feed_extends_a_live_stream(self):
        io = StreamIO({"a": [1]})
        assert io.read("a") == 1
        io.feed("a", [2, 3])
        assert io.read("a") == 2
        assert io.read("a") == 3

    def test_reader_is_a_bound_cursor(self):
        io = StreamIO({"a": [10, 20]})
        read_a = io.reader("a")
        assert read_a() == 10
        assert read_a() == 20
        with pytest.raises(EndOfStream):
            read_a()

    def test_reader_sees_values_fed_after_binding(self):
        io = StreamIO({"a": [1]})
        read_a = io.reader("a")
        assert read_a() == 1
        io.feed("a", [2])
        assert read_a() == 2

    def test_writer_appends_to_outputs(self):
        io = StreamIO()
        write_x = io.writer("x")
        write_x(7)
        write_x(8)
        assert io.output("x") == [7, 8]

    def test_recording_io_reader_writer_log_steps(self):
        io = RecordingIO({"a": [5]})
        io.reader("a")()
        io.writer("x")(6)
        io.end_step()
        assert io.step_log == [{"a": 5, "-> x": 6}]


class TestSpecializedDifferential:
    """specialized == interpreter == batched on the paper's processes."""

    CASES = [
        (buffer_process, {"y": [3, 1, 4, 1, 5, 9]}),
        (filter_process, {"y": [True, False, True, True, False]}),
    ]

    @pytest.mark.parametrize("factory,inputs", CASES)
    def test_three_tiers_agree(self, factory, inputs):
        process = normalize(factory())
        results = [
            run_io(compile_process(process), inputs),
            run_io(compile_interpreted(process), inputs),
        ]
        if numpy_available():
            results.append(run_lane(process, inputs))
        assert all(result == results[0] for result in results)

    @pytest.mark.parametrize("factory,inputs", CASES)
    def test_specialized_is_repeatable(self, factory, inputs):
        engine = compile_process(normalize(factory()))
        assert run_io(engine, inputs) == run_io(engine, inputs)

    @settings(max_examples=40, deadline=None)
    @given(stream=st.lists(st.booleans(), max_size=24))
    def test_filter_differential_hypothesis(self, stream):
        process = normalize(filter_process())
        reference = run_io(compile_interpreted(process), {"y": stream})
        assert run_io(compile_process(process), {"y": stream}) == reference

    @settings(max_examples=40, deadline=None)
    @given(stream=st.lists(st.integers(-2**31, 2**31), max_size=24))
    def test_buffer_differential_hypothesis(self, stream):
        process = normalize(buffer_process())
        reference = run_io(compile_interpreted(process), {"y": stream})
        assert run_io(compile_process(process), {"y": stream}) == reference


class TestBindSource:
    def test_bind_source_binds_io_once(self):
        program = build_step_program(normalize(buffer_process()))
        source = render_bind_source(program)
        assert f"def {program.process.name}_bind(io, state):" in source
        # readers/writers are bound in the closure prologue, not per step
        prologue = source.split("def step():")[0]
        assert "_reader(io, 'y')" in prologue
        assert "_writer(io, 'x')" in prologue

    def test_specialized_exposes_program_and_source(self):
        engine = compile_process(normalize(buffer_process()))
        assert isinstance(engine, CompiledProcess)
        assert engine.inputs == ("y",)
        assert engine.python_source == render_bind_source(engine.program)

    def test_interpreted_runs_same_program(self):
        engine = compile_interpreted(normalize(buffer_process()))
        assert isinstance(engine, InterpretedProcess)
        steps, outputs = run_io(engine, {"y": [1, 2]})
        assert outputs == {"x": [1, 2]}


class TestDesignRuntimes:
    def design(self, producer_consumer):
        return Design(
            name="main",
            components=[producer_consumer["producer"], producer_consumer["consumer"]],
        )

    INPUTS = {
        "a": [True, False, True, False],
        "b": [False, True, False, True],
    }

    def test_sequential_tiers_agree(self, producer_consumer):
        design = self.design(producer_consumer)
        flows = []
        for runtime in RUNTIMES:
            deployment = design.compile(
                "sequential", runtime=runtime, master_clocks=True
            )
            feed = dict(self.INPUTS)
            for name in deployment.master_clock_inputs:
                feed[name] = [True] * 4
            flows.append(deployment.run(feed))
        assert flows[0] == flows[1] == flows[2]
        assert flows[0]["v"]  # the composition produced something

    def test_listing_is_the_same_on_every_tier(self, producer_consumer):
        design = self.design(producer_consumer)
        listings = {
            runtime: design.compile("sequential", runtime=runtime, master_clocks=True).listing()
            for runtime in RUNTIMES
        }
        assert len(set(listings.values())) == 1
        assert "bool main_iterate()" in listings["interpreter"]

    @pytest.mark.parametrize("strategy", ["controlled", "concurrent"])
    def test_compositional_tiers_agree(self, producer_consumer, strategy):
        design = self.design(producer_consumer)
        reference = design.compile(strategy, runtime="specialized").run(dict(self.INPUTS))
        assert design.compile(strategy, runtime="interpreter").run(dict(self.INPUTS)) == reference
        assert design.compile(strategy).run(dict(self.INPUTS)) == reference

    def test_unknown_runtime_is_rejected(self, producer_consumer):
        with pytest.raises(DeploymentError, match="unknown runtime"):
            self.design(producer_consumer).compile("sequential", runtime="warp")

    def test_compiled_runtime_is_gone(self, producer_consumer):
        with pytest.raises(DeploymentError) as raised:
            self.design(producer_consumer).compile("sequential", runtime="compiled")
        message = str(raised.value)
        assert all(repr(runtime) in message for runtime in ("specialized", "interpreter", "batched"))
        assert RUNTIMES == ("specialized", "interpreter", "batched")

    def test_controlled_compile_checks_compilability_once(self, producer_consumer, monkeypatch):
        calls = []
        original = compilable.is_acyclic

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(compilable, "is_acyclic", counting)
        design = self.design(producer_consumer)
        design.compile("controlled")
        # the deployment checks every component and compile_process checks it
        # again; the verdict is memoized per analysis, so each reinforced
        # graph is walked once
        assert len(calls) >= len(design.components)
        assert len({id(graph) for graph in calls}) == len(calls)

    def test_batched_requires_sequential_strategy(self, producer_consumer):
        with pytest.raises(DeploymentError, match="sequential strategy only"):
            self.design(producer_consumer).compile("controlled", runtime="batched")


class TestObservability:
    def test_run_records_metrics_per_runtime(self, clean_obs, producer_consumer):
        design = Design(
            name="main",
            components=[producer_consumer["producer"], producer_consumer["consumer"]],
        )
        deployment = design.compile(
            "sequential", runtime="specialized", master_clocks=True
        )
        deployment.run({"a": [True, False], "b": [False, True]})
        snapshot = obs_metrics.GLOBAL.snapshot()
        families = {family["name"] for family in snapshot["families"]}
        assert "repro_deploy_runs_total" in families
        assert "repro_deploy_steps_total" in families

    def test_run_emits_deploy_span_when_tracing(self, clean_obs, producer_consumer):
        obs_trace.configure(enabled=True)
        design = Design(
            name="main",
            components=[producer_consumer["producer"], producer_consumer["consumer"]],
        )
        deployment = design.compile(
            "sequential", runtime="specialized", master_clocks=True
        )
        deployment.run({"a": [True], "b": [False]})
        names = [span["name"] for span in obs_trace.get_tracer().spans]
        assert "deploy.run" in names


def _seeded_feed(rng, deployment, types, steps):
    feed = {}
    for name in deployment.inputs:
        if name in deployment.master_clock_inputs or types.get(name) == "bool":
            feed[name] = [rng.random() < 0.7 for _ in range(steps)]
        else:
            feed[name] = [rng.randrange(0, 64) for _ in range(steps)]
    return feed


def _interpreter_flows(design, feed):
    """``SignalInterpreter`` flows, or None where it rejects the feed.

    Applies when every input is present at every instant of the feed, which
    is how the deployments consume it.
    """
    process = design.composition
    if set(feed) != set(process.inputs):
        return None
    interpreter = SignalInterpreter(process)
    flows = {name: [] for name in process.outputs}
    for instant in range(len(next(iter(feed.values()), []))):
        try:
            result = interpreter.step({name: values[instant] for name, values in feed.items()})
        except (ClockError, UnderdeterminedError):
            return None
        for name in flows:
            if result.present(name):
                flows[name].append(result.value(name))
    return flows


@pytest.mark.skipif(not numpy_available(), reason="the batched tier requires numpy")
class TestCorpusTiers:
    """Every committed corpus design that deploys runs alike on the three tiers."""

    def test_corpus_sweep(self):
        deployed = interpreted = 0
        for entry in CORPUS.entries:
            generated = sample_design(entry.seed, depth=entry.depth)
            design = Design(name=entry.name, components=list(generated.components))
            for master_clocks in (False, True):
                try:
                    tiers = [
                        design.compile("sequential", runtime=runtime, master_clocks=master_clocks)
                        for runtime in RUNTIMES
                    ]
                    break
                except (CodeGenerationError, DeploymentError):
                    tiers = None
            if tiers is None:
                continue  # not hierarchic even with master clocks
            rng = random.Random(entry.seed)
            types = dict(design.composition.types)
            for _attempt in range(8):
                feed = _seeded_feed(rng, tiers[0], types, 24)
                try:
                    expected = tiers[0].run(feed)
                except Exception:  # noqa: BLE001 - the feed breaks a clock constraint
                    continue
                assert tiers[1].run(feed) == expected, entry.name
                assert tiers[2].run_many([feed]).outputs == [expected], entry.name
                reference = _interpreter_flows(design, feed)
                if reference is not None:
                    assert reference == expected, entry.name
                    interpreted += 1
                deployed += 1
                break
        assert deployed >= 54 and interpreted > 0, (deployed, interpreted)
