"""Workload ``deploy_fleet``: code generation and the runtimes, no mc/bdd.

Each design goes source → ``Design.from_source`` → ``Design.compile
("sequential")`` on the default runtime → ``run`` on a seeded feed.  The
designs are pipeline_8, deriv_32 and every committed corpus design that
compiles.  Two batched fleets of 1024 lanes (``run_many``) run on deriv_32
(a deep single-clock chain, the batched tier's best case) and on pipeline_8
(17 input streams, its weak case).

Oracles: scalar outputs equal ``SignalInterpreter`` reference flows where
the interpreter accepts every input present at every instant (an
independent semantics, no codegen involved); every fleet lane is
byte-identical to a scalar run of the same lane, checked before timing, and
every timed run must reproduce the checked outputs.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from common import PassRecord, Tracer, ms, per_op, percentile
from designs import corpus_designs, count_design, derivative_chain, family_design, kernel_metrics, load_corpus

STEPS = 64
FLEET = 1024
FLEET_STEPS = 256
SMOKE_FLEET = 32


class Target:
    """One design of the workload with its feed and checked outputs."""

    def __init__(self, design, master_clocks: bool):
        self.design = design
        self.master_clocks = master_clocks
        self.feed: Dict[str, list] = {}
        self.expected = None
        self.steps = 0


def _random_feed(rng: random.Random, deployment, types: Dict[str, str], steps: int) -> Dict[str, list]:
    feed = {}
    for name in deployment.inputs:
        if name in deployment.master_clock_inputs or types.get(name) == "bool":
            feed[name] = [rng.random() < 0.7 for _ in range(steps)]
        else:
            feed[name] = [rng.randrange(0, 64) for _ in range(steps)]
    return feed


def _pipeline_feed(deployment, steps: int, rng: random.Random) -> Dict[str, list]:
    base = rng.randrange(0, 1 << 20)
    feed = {"x0": [base + index for index in range(steps)]}
    for name in deployment.inputs:
        if name != "x0":
            feed[name] = [True] * steps
    return feed


def interpreter_flows(design, feed: Dict[str, list]):
    """Reference flows from the interpreter, or None where it does not apply.

    Applies when every input carries one value per instant and the
    interpreter accepts all of them present at every instant.
    """
    from repro.semantics.interpreter import ClockError, SignalInterpreter, UnderdeterminedError

    process = design.composition
    if set(feed) != set(process.inputs):
        return None
    lengths = {len(values) for values in feed.values()}
    if len(lengths) != 1:
        return None
    interpreter = SignalInterpreter(process)
    flows = {name: [] for name in process.outputs}
    for instant in range(lengths.pop()):
        try:
            result = interpreter.step({name: values[instant] for name, values in feed.items()})
        except (ClockError, UnderdeterminedError):
            return None
        for name in flows:
            if result.present(name):
                flows[name].append(result.value(name))
    return flows


class DeployFleet:
    name = "deploy_fleet"
    guarded = ("codegen.batch.vectorized_lanes",)
    #: one thread does all the work, so its CPU time is the work's cost
    #: without the time the shared host runs someone else on this vCPU
    clock = staticmethod(time.process_time)

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        corpus = load_corpus()
        self.sources = [family_design("pipeline_8"), derivative_chain(32)]
        self.sources += [design for _entry, design in corpus_designs(corpus, limit=6 if self.smoke else None)]

    def prepare(self) -> None:
        """Pick the designs that compile, draw feeds, check outputs, stage fleets."""
        from repro import Design
        from repro.api.deploy import DeploymentError
        from repro.codegen.sequential import CodeGenerationError

        rng = random.Random(self.seed)
        self.targets: List[Target] = []
        self.interpreter_checked = 0
        for source in self.sources:
            design = Design.from_source(source.source, name=source.name)
            for master_clocks in (False, True):
                try:
                    batched = design.compile("sequential", runtime="batched", master_clocks=master_clocks)
                    break
                except (CodeGenerationError, DeploymentError):
                    batched = None
            if batched is None:
                continue  # not hierarchic even with master clocks: nothing to deploy
            target = Target(source, master_clocks)
            types = dict(design.composition.types)
            for _attempt in range(8):
                if source.name == "pipeline_8":
                    feed = _pipeline_feed(batched, STEPS, rng)
                else:
                    feed = _random_feed(rng, batched, types, STEPS)
                scalar = design.compile("sequential", master_clocks=master_clocks)
                try:
                    outputs = scalar.run(feed)
                except Exception:  # noqa: BLE001 - this feed breaks a clock constraint
                    continue
                fleet = batched.run_many([feed])
                if fleet.outputs[0] != outputs:
                    raise RuntimeError(f"{source.name}: batched lane differs from the scalar run")
                reference = interpreter_flows(design, feed)
                if reference is not None:
                    if reference != outputs:
                        raise RuntimeError(f"{source.name}: deployment differs from the interpreter")
                    self.interpreter_checked += 1
                target.feed, target.expected, target.steps = feed, outputs, fleet.steps[0]
                break
            if target.expected is not None:
                self.targets.append(target)
        rng.shuffle(self.targets)
        self.fleets = [self._fleet(name, rng) for name in ("deriv_32", "pipeline_8")]

    def _fleet(self, name: str, rng: random.Random) -> Target:
        from repro import Design

        lanes = SMOKE_FLEET if self.smoke else FLEET
        source = next(s for s in self.sources if s.name == name)
        master_clocks = name == "pipeline_8"
        design = Design.from_source(source.source, name=name)
        batched = design.compile("sequential", runtime="batched", master_clocks=master_clocks)
        if name == "pipeline_8":
            instances = [_pipeline_feed(batched, FLEET_STEPS, rng) for _ in range(lanes)]
        else:
            types = dict(design.composition.types)
            instances = [_random_feed(rng, batched, types, FLEET_STEPS) for _ in range(lanes)]
        scalar = design.compile("sequential", runtime="specialized", master_clocks=master_clocks)
        fleet = batched.run_many(instances)
        if fleet.outputs != [scalar.run(instance) for instance in instances]:
            raise RuntimeError(f"{name}: fleet lanes differ from scalar lanes")
        target = Target(source, master_clocks)
        target.feed, target.expected, target.steps = instances, fleet.outputs, sum(fleet.steps)
        return target

    # -- one pass -------------------------------------------------------------------
    def run_pass(self, tracer: Tracer) -> PassRecord:
        record = PassRecord(clock=self.clock)
        started = time.perf_counter()
        for target in self.targets:
            record.checkpoint()
            self._scalar(target, tracer, record)
        for target in self.fleets:
            record.checkpoint()
            self._fleet_run(target, tracer, record)
        record.seconds = time.perf_counter() - started
        return record

    def _design(self, target: Target, tracer: Tracer):
        from repro import Design

        with tracer.span("lang.from_source", "lang"):
            design = Design.from_source(target.design.source, name=target.design.name)
        if tracer.enabled:
            with tracer.span("lang.digest", "lang"):
                design.digest()
            with tracer.span("clocks.analysis", "clocks"):
                design.component_analyses()
                design.analysis
        return design

    def _count(self, design, tracer: Tracer, record: PassRecord) -> None:
        if tracer.enabled:
            count_design(design, record)  # the clock calculus's kernel work

    def _scalar(self, target: Target, tracer: Tracer, record: PassRecord) -> None:
        from repro.codegen.sequential import build_step_program

        name = target.design.name
        record.attempted += 2
        try:
            begin = self.clock()
            with tracer.span("api.deploy.design", "api"):
                design = self._design(target, tracer)
                if tracer.enabled:
                    with tracer.span("codegen.step_program", "codegen"):
                        build_step_program(design.analysis, master_clocks=target.master_clocks)
                with tracer.span("api.deploy.compile", "api"):
                    deployment = design.compile("sequential", master_clocks=target.master_clocks)
            compiled = self.clock()
            with tracer.span("codegen.run", "codegen"):
                outputs = deployment.run(target.feed)
            finished = self.clock()
            self._count(design, tracer, record)
        except Exception as error:  # noqa: BLE001 - a typed error is a failed operation
            record.fail(f"{name}: {type(error).__name__}: {error}")
            return
        record.latencies[f"compile|{name}"] = compiled - begin
        record.latencies[f"run|{name}"] = finished - compiled
        if outputs != target.expected:
            record.fail(f"{name}: scalar outputs differ from the checked flows")

    def _fleet_run(self, target: Target, tracer: Tracer, record: PassRecord) -> None:
        name = target.design.name
        record.attempted += 2
        try:
            begin = self.clock()
            with tracer.span("api.deploy.design", "api"):
                design = self._design(target, tracer)
                with tracer.span("codegen.batch.compile", "codegen"):
                    batched = design.compile("sequential", runtime="batched", master_clocks=target.master_clocks)
            compiled = self.clock()
            with tracer.span("codegen.batch.run", "codegen"):
                fleet = batched.run_many(target.feed)
            finished = self.clock()
            self._count(design, tracer, record)
        except Exception as error:  # noqa: BLE001
            record.fail(f"fleet {name}: {type(error).__name__}: {error}")
            return
        record.latencies[f"fleet-compile|{name}"] = compiled - begin
        record.latencies[f"fleet-run|{name}"] = finished - compiled
        record.add_count("codegen.batch.vectorized_lanes", fleet.vectorized)
        record.add_count("codegen.batch.fallback_lanes", fleet.fallback)
        if fleet.outputs != target.expected:
            record.fail(f"fleet {name}: lanes differ from the checked scalar lanes")

    # -- metrics --------------------------------------------------------------------
    def named(self, passes: List[PassRecord]) -> Dict[str, Dict[str, object]]:
        latency = per_op(passes)
        compiles = [latency[f"compile|{t.design.name}"] for t in self.targets]
        run_seconds = sum(latency[f"run|{t.design.name}"] for t in self.targets)
        named = {
            "compile_p50_ms": {"value": ms(percentile(compiles, 50)), "unit": "ms", "samples": len(compiles) * len(passes)},
            "scalar_reactions_per_s": {
                "value": sum(t.steps for t in self.targets) / run_seconds, "unit": "1/s", "samples": len(passes)
            },
        }
        for target in self.fleets:
            key = target.design.name.replace("_", "")
            named[f"fleet_{key}_reactions_per_s"] = {
                "value": target.steps / latency[f"fleet-run|{target.design.name}"], "unit": "1/s", "samples": len(passes)
            }
        return named

    def pass_seconds(self, passes: List[PassRecord]) -> float:
        """Every compile, run and fleet of a pass, each at its median time."""
        return sum(per_op(passes).values())

    def layers(self, passes: List[PassRecord], tracer: Tracer) -> Dict[str, float]:
        rounds = len(passes)
        values = {}
        for name in ("lang.from_source", "lang.digest", "clocks.analysis", "codegen.step_program", "api.deploy.compile", "codegen.batch.compile"):
            values[f"{name}_ms"] = ms(sum(tracer.durations(name)) / rounds)
        counts = passes[-1].counts
        values.update(counts)
        values.update(kernel_metrics(counts))
        return values

    def notes(self) -> List[str]:
        return [
            f"{len(self.targets)} of {len(self.sources)} designs compile; the interpreter "
            f"oracle applied to {self.interpreter_checked} of them"
        ]

    def close(self) -> None:
        pass
