"""Fleet-scale deployment execution: the runtime-tier gates.

Measures reactions per second for the three execution tiers behind
``Design.compile`` — the per-op ``interpreter``, the closure-``specialized``
step function (the default) and the numpy ``batched`` fleet runtime — on the
eight-stage pipeline workload, and pins the two
throughput gates plus the batched-vs-scalar identity contract:

* ``specialized`` must reach >= 3x the ``interpreter`` reactions/s on the
  pipeline_8-class design;
* ``batched`` must reach >= 10x the per-instance throughput of scalar
  ``specialized`` at 1024 instances on the 32-stage derivative chain (a
  deep single-clock dataflow whose values stay bounded, so no lane ever
  leaves the int64 fragment);
* batched outputs must be byte-identical to scalar outputs across the
  committed corpus seeds (vectorized lanes and fallback lanes alike).

Cold numbers (compile) and warm numbers (run on an already-compiled
deployment) are recorded separately in ``BENCH_deploy.json``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from _record import recorder, timed

from repro import Design
from repro.codegen.batch import numpy_available
from repro.codegen.sequential import CodeGenerationError, build_step_program
from repro.gen.topologies import pipeline_network, sample_design
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true

RECORD = recorder("deploy")

STAGES = 8
STEPS = 512
FLEET = 1024
FLEET_STEPS = 256
CHAIN = 32
CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "corpus.json"


@pytest.fixture(scope="module")
def pipeline_design():
    components, _ = pipeline_network(STAGES)
    return Design(name="pipeline_8", components=list(components))


def derivative_chain(stages):
    """A deep single-clock dataflow whose values stay bounded.

    ``u1`` counts the clock ticks and each ``g_i`` takes the finite
    difference of the previous stage, so every signal's magnitude is bounded
    by a small constant no matter how long the run — the fleet workload
    exercises ``stages`` compute/update pairs per reaction without ever
    approaching the int64 guard.
    """
    builder = ProcessBuilder("deriv", inputs=["c"], outputs=[f"g{stages}"])
    builder.local("u1")
    builder.constrain(tick("u1"), when_true("c"))
    builder.define("u1", const(1) + signal("u1").pre(0))
    previous = "u1"
    for index in range(1, stages + 1):
        name = f"g{index}"
        if index < stages:
            builder.local(name)
        builder.define(name, signal(previous) - signal(previous).pre(0))
        previous = name
    return builder.build()


@pytest.fixture(scope="module")
def chain_design():
    return Design(name=f"deriv_{CHAIN}", components=[derivative_chain(CHAIN)])


def _pipeline_feed(deployment, steps, offset=0):
    feed = {"x0": [offset + index for index in range(steps)]}
    for index in range(STAGES):
        feed[f"c{index}"] = [True] * steps
    for name in deployment.master_clock_inputs:
        feed[name] = [True] * steps
    return feed


def _best_of(repeats, function, *args):
    result, best = None, None
    for _ in range(repeats):
        result, seconds = timed(function, *args)
        best = seconds if best is None else min(best, seconds)
    return result, best


def test_runtime_tier_reactions_per_second(pipeline_design):
    """Cold compile + warm run per tier; gate: specialized >= 3x interpreter."""
    throughput = {}
    reference = None
    for runtime in ("interpreter", "specialized"):
        deployment, cold = timed(
            pipeline_design.compile, "sequential", runtime=runtime, master_clocks=True
        )
        feed = _pipeline_feed(deployment, STEPS)
        flows, warm = _best_of(3, deployment.run, feed)
        assert flows[f"x{STAGES}"][0] == STAGES  # 0 bumped once per stage
        if reference is None:
            reference = flows
        else:
            assert flows == reference  # every tier produces the same flows
        throughput[runtime] = STEPS / warm
        RECORD.record(
            f"pipeline_{STAGES} {runtime} x{STEPS}",
            seconds=warm,
            compile_seconds=round(cold, 6),
            reactions_per_second=round(STEPS / warm, 1),
        )
    ratio = throughput["specialized"] / throughput["interpreter"]
    RECORD.record(
        "gate specialized vs interpreter",
        speedup=round(ratio, 2),
        threshold=3.0,
    )
    assert ratio >= 3.0, (
        f"specialized tier reached only {ratio:.2f}x the interpreter "
        f"reactions/s on pipeline_{STAGES} (gate: 3x)"
    )


@pytest.mark.skipif(not numpy_available(), reason="batched tier requires numpy")
def test_batched_fleet_throughput(chain_design):
    """Gate: batched >= 10x per-instance over scalar specialized at 1024 lanes."""
    batched, cold = timed(chain_design.compile, "sequential", runtime="batched")
    assert batched.vectorized, "the chain must be inside the vectorizable fragment"
    scalar = chain_design.compile("sequential", runtime="specialized")
    instances = [{"c": [True] * FLEET_STEPS} for _ in range(FLEET)]

    fleet, batched_seconds = _best_of(3, batched.run_many, instances)
    assert fleet.vectorized == FLEET and fleet.fallback == 0

    def scalar_sweep():
        return [scalar.run(feed) for feed in instances]

    scalar_outputs, scalar_seconds = _best_of(2, scalar_sweep)
    assert fleet.outputs == scalar_outputs  # byte-identical at 1024 instances

    speedup = scalar_seconds / batched_seconds
    per_instance = batched_seconds / FLEET
    RECORD.record(
        f"batched deriv_{CHAIN} fleet x{FLEET} ({FLEET_STEPS} steps)",
        seconds=batched_seconds,
        compile_seconds=round(cold, 6),
        per_instance_seconds=round(per_instance, 8),
        reactions_per_second=round(FLEET * FLEET_STEPS / batched_seconds, 1),
    )
    RECORD.record(
        f"scalar deriv_{CHAIN} sweep x{FLEET} ({FLEET_STEPS} steps)",
        seconds=scalar_seconds,
        reactions_per_second=round(FLEET * FLEET_STEPS / scalar_seconds, 1),
    )
    RECORD.record(
        "gate batched vs scalar per-instance",
        speedup=round(speedup, 2),
        threshold=10.0,
        instances=FLEET,
    )
    assert speedup >= 10.0, (
        f"batched runtime reached only {speedup:.2f}x scalar specialized "
        f"per-instance throughput at {FLEET} instances (gate: 10x)"
    )


@pytest.mark.skipif(not numpy_available(), reason="batched tier requires numpy")
def test_batched_pipeline_fleet(pipeline_design):
    """Recorded (ungated): the read-heavy pipeline fleet, 17 input streams."""
    batched = pipeline_design.compile(
        "sequential", runtime="batched", master_clocks=True
    )
    assert batched.vectorized
    scalar = pipeline_design.compile(
        "sequential", runtime="specialized", master_clocks=True
    )
    instances = [
        _pipeline_feed(batched, FLEET_STEPS, offset=lane) for lane in range(FLEET)
    ]
    fleet, batched_seconds = _best_of(2, batched.run_many, instances)
    assert fleet.vectorized == FLEET and fleet.fallback == 0
    scalar_outputs, scalar_seconds = timed(
        lambda: [scalar.run(feed) for feed in instances]
    )
    assert fleet.outputs == scalar_outputs
    RECORD.record(
        f"batched pipeline_{STAGES} fleet x{FLEET} ({FLEET_STEPS} steps)",
        seconds=batched_seconds,
        speedup=round(scalar_seconds / batched_seconds, 2),
        reactions_per_second=round(FLEET * FLEET_STEPS / batched_seconds, 1),
    )


def _corpus_seeds():
    if not CORPUS.exists():  # pragma: no cover - corpus is committed
        return []
    payload = json.loads(CORPUS.read_text(encoding="utf-8"))
    return sorted({entry["seed"] for entry in payload.get("entries", [])})


def _feed_for(program, master_clock_inputs, rng, steps):
    feed = {}
    for name in program.inputs:
        if name in master_clock_inputs or program.types.get(name) == "bool":
            feed[name] = [rng.random() < 0.7 for _ in range(steps)]
        else:
            feed[name] = [rng.randrange(0, 64) for _ in range(steps)]
    return feed


@pytest.mark.skipif(not numpy_available(), reason="batched tier requires numpy")
def test_corpus_batched_identical_to_scalar():
    """Identity contract: batched == scalar on every committed corpus seed."""
    seeds = _corpus_seeds()
    assert seeds, "committed corpus must provide at least one seed"
    compared = vectorized = fallback = skipped = 0
    elapsed = 0.0
    for seed in seeds:
        generated = sample_design(seed)
        design = Design(name=generated.name, components=list(generated.components))
        try:
            batched = design.compile("sequential", runtime="batched")
            master_clocks = False
        except CodeGenerationError:
            try:
                batched = design.compile(
                    "sequential", runtime="batched", master_clocks=True
                )
                master_clocks = True
            except CodeGenerationError:
                skipped += 1  # not hierarchic even with a master clock
                continue
        program = build_step_program(
            design.analysis, master_clocks=master_clocks, check_compilable=False
        )
        rng = random.Random(seed)
        lanes = [
            _feed_for(program, batched.master_clock_inputs, rng, rng.randrange(0, 24))
            for _ in range(6)
        ]
        scalar = design.compile(
            "sequential", runtime="specialized", master_clocks=master_clocks
        )
        try:
            expected = [scalar.run(lane) for lane in lanes]
        except Exception:
            # random feeds can violate the design's clock constraints, which
            # crashes every scalar tier identically; the identity contract is
            # "wherever scalar completes, batched matches", so skip
            skipped += 1
            continue
        fleet, seconds = timed(batched.run_many, lanes)
        elapsed += seconds
        assert fleet.outputs == expected, generated.name
        compared += 1
        vectorized += fleet.vectorized
        fallback += fleet.fallback
    assert compared > 0 and vectorized > 0  # the sweep exercised the numpy path
    RECORD.record(
        "corpus batched identity sweep",
        seconds=elapsed,
        designs=compared,
        skipped=skipped,
        vectorized_lanes=vectorized,
        fallback_lanes=fallback,
    )
