"""The vectorized fleet runtime: identity with the scalar tier, and fallbacks.

The batch kernel's contract is *lane identity*: on any fleet where the scalar
specialized tier completes, ``run_many`` produces byte-identical outputs and
step counts — vectorized lanes and fallback lanes alike.  The tests cover the
vectorizable fragment's borders (types, magnitudes, operators), the overflow
guard, the update conflict analysis (in-place vs rebind), and the deployment
layer's routing between the numpy path and the scalar fallback.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Design
from repro.codegen.batch import (
    BatchCompilationError,
    BatchOverflowError,
    BatchProgram,
    LANE_LIMIT,
    compile_batch,
    numpy_available,
)
from repro.codegen.runtime import StreamIO
from repro.codegen.sequential import build_step_program, compile_process
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_process

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the batch runtime requires numpy"
)


def counter_process(name="counter"):
    """u counts clock ticks; doubling variant overflows by design."""
    builder = ProcessBuilder(name, inputs=["c"], outputs=["u"])
    builder.constrain(tick("u"), when_true("c"))
    builder.define("u", const(1) + signal("u").pre(0))
    return builder.build()


def doubling_process(name="doubler"):
    """u doubles every tick: exceeds the int64 guard within ~64 steps."""
    builder = ProcessBuilder(name, inputs=["c"], outputs=["u"])
    builder.constrain(tick("u"), when_true("c"))
    builder.define("u", signal("u").pre(1) + signal("u").pre(1))
    return builder.build()


def relay_process(name="relay"):
    """A numeric pass-through: x = y + 0, typing both signals as num."""
    builder = ProcessBuilder(name, inputs=["y"], outputs=["x"])
    builder.define("x", signal("y") + const(0))
    return builder.build()


def swap_process(name="swap"):
    """Two registers that exchange values: exercises the rebind analysis."""
    builder = ProcessBuilder(name, inputs=["c"], outputs=["x", "y"])
    builder.constrain(tick("x"), when_true("c"))
    builder.define("x", signal("y").pre(0) + const(1))
    builder.define("y", signal("x").pre(10) + const(1))
    return builder.build()


def scalar_outputs(process, lanes):
    engine = compile_process(process)
    results = []
    for lane in lanes:
        engine.reset()
        io = StreamIO({name: list(values) for name, values in lane.items()})
        steps = engine.run(io)
        results.append((steps, {name: io.output(name) for name in engine.outputs}))
    return results


def assert_fleet_matches_scalar(process, lanes):
    batch = compile_batch(process)
    steps, outputs = batch.run_many(lanes)
    expected = scalar_outputs(process, lanes)
    assert list(zip(steps, outputs)) == expected


class TestFragment:
    def test_untyped_signals_are_rejected(self):
        identity = ProcessBuilder("ident", inputs=["y"], outputs=["x"])
        identity.define("x", signal("y"))
        with pytest.raises(BatchCompilationError, match="bool/int64 fragment"):
            compile_batch(normalize(identity.build()))

    def test_oversized_initial_register_is_rejected(self):
        builder = ProcessBuilder("big", inputs=["c"], outputs=["u"])
        builder.constrain(tick("u"), when_true("c"))
        builder.define("u", const(1) + signal("u").pre(2**40))
        with pytest.raises(BatchCompilationError, match="int64 lane fragment"):
            compile_batch(normalize(builder.build()))

    def test_buffer_and_filter_compile(self):
        assert isinstance(compile_batch(normalize(buffer_process())), BatchProgram)
        assert isinstance(compile_batch(normalize(filter_process())), BatchProgram)

    def test_kernel_source_is_exposed(self):
        batch = compile_batch(normalize(buffer_process()))
        assert "_batch(_streams, _n, _max_steps)" in batch.python_source


class TestLaneEligibility:
    def batch(self):
        return compile_batch(normalize(relay_process()))

    def test_int_lanes_are_eligible(self):
        assert self.batch().lane_vectorizable({"y": [1, -5, 0]})

    def test_float_contamination_is_not(self):
        assert not self.batch().lane_vectorizable({"y": [1, 0.5]})

    def test_magnitude_beyond_lane_limit_is_not(self):
        assert not self.batch().lane_vectorizable({"y": [LANE_LIMIT + 1]})

    def test_bool_stream_rejects_int_contamination(self):
        batch = compile_batch(normalize(filter_process()))
        assert batch.lane_vectorizable({"y": [True, False]})
        assert not batch.lane_vectorizable({"y": [True, 1]})

    def test_stage_fleet_accepts_an_eligible_fleet(self):
        staged = self.batch().stage_fleet([{"y": [1, 2]}, {"y": [3]}])
        assert staged is not None
        data, lengths = staged["y"]
        assert data.shape == (2, 2) and lengths.tolist() == [2, 1]

    def test_stage_fleet_refuses_contaminated_fleets(self):
        assert self.batch().stage_fleet([{"y": [1]}, {"y": ["x"]}]) is None
        filt = compile_batch(normalize(filter_process()))
        assert filt.stage_fleet([{"y": [True]}, {"y": [1]}]) is None


class TestLaneIdentity:
    def test_buffer_fleet_matches_scalar(self):
        # the library buffer carries booleans through its two-phase protocol
        process = normalize(buffer_process())
        rng = random.Random(3)
        lanes = [
            {"y": [rng.random() < 0.5 for _ in range(row % 7)]} for row in range(50)
        ]
        assert_fleet_matches_scalar(process, lanes)

    def test_numeric_relay_fleet_matches_scalar(self):
        process = normalize(relay_process())
        lanes = [{"y": [row * 10 + k for k in range(row % 7)]} for row in range(50)]
        assert_fleet_matches_scalar(process, lanes)

    def test_counter_fleet_matches_scalar(self):
        process = normalize(counter_process())
        rng = random.Random(11)
        lanes = [
            {"c": [rng.random() < 0.6 for _ in range(rng.randrange(0, 20))]}
            for _ in range(64)
        ]
        assert_fleet_matches_scalar(process, lanes)

    def test_swap_fleet_matches_scalar(self):
        # the cross-coupled registers force the where-rebind update path
        process = normalize(swap_process())
        lanes = [{"c": [True] * length} for length in range(0, 12)]
        assert_fleet_matches_scalar(process, lanes)

    def test_empty_fleet(self):
        batch = compile_batch(normalize(buffer_process()))
        assert batch.run_many([]) == ([], [])

    @settings(max_examples=30, deadline=None)
    @given(
        lanes=st.lists(
            st.lists(st.booleans(), max_size=12), min_size=1, max_size=8
        )
    )
    def test_filter_fleet_hypothesis(self, lanes):
        process = normalize(filter_process())
        assert_fleet_matches_scalar(process, [{"y": lane} for lane in lanes])


class TestOverflowGuard:
    def test_doubling_raises_before_wrapping(self):
        batch = compile_batch(normalize(doubling_process()))
        with pytest.raises(BatchOverflowError):
            batch.run_many([{"c": [True] * 128}])

    def test_guard_interval_is_bounded(self):
        batch = compile_batch(normalize(doubling_process()))
        assert 1 <= batch.guard_interval <= 64
        assert batch.guard_limit < 2**63

    def test_deployment_redoes_the_batch_scalar(self):
        design = Design(name="d", components=[doubling_process()])
        deployment = design.compile("sequential", runtime="batched")
        fleet = deployment.run_many([{"c": [True] * 128}])
        assert fleet.vectorized == 0 and fleet.fallback == 1
        # the scalar tier carries exact big ints: 128 doublings of 1
        assert fleet.outputs[0]["u"][-1] == 2**128


class TestBatchedDeployment:
    def test_mixed_fleet_routes_per_lane(self):
        design = Design(name="d", components=[counter_process()])
        deployment = design.compile("sequential", runtime="batched")
        lanes = [
            {"c": [True, True, True]},
            {"c": [True, 1, True]},  # int contamination: scalar fallback
        ]
        fleet = deployment.run_many(lanes)
        assert fleet.vectorized == 1 and fleet.fallback == 1
        assert fleet.outputs[0]["u"] == [1, 2, 3]
        assert fleet.outputs[1]["u"] == [1, 2, 3]  # 1 is truthy for the clock

    def test_single_instance_run(self):
        design = Design(name="d", components=[counter_process()])
        deployment = design.compile("sequential", runtime="batched")
        assert deployment.run({"c": [True, False, True]})["u"] == [1, 2]

    def test_step_is_refused(self):
        design = Design(name="d", components=[counter_process()])
        deployment = design.compile("sequential", runtime="batched")
        with pytest.raises(Exception, match="whole fleets"):
            deployment.step(StreamIO({"c": [True]}))

    def test_fleet_result_shape(self):
        design = Design(name="d", components=[counter_process()])
        deployment = design.compile("sequential", runtime="batched")
        fleet = deployment.run_many([{"c": [True]}, {"c": []}])
        assert fleet.instances == 2
        assert fleet.steps == [1, 0]
