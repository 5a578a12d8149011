"""Deployment: the four code generation / execution schemes behind one interface.

Section 3.6 and Section 5 of the paper describe four ways of turning a
verified design into running code; each becomes a :class:`Deployment` with
the same ``reset()`` / ``step(io)`` / ``run(inputs)`` surface:

* ``"sequential"`` — one monolithic step function (Section 3.6); for
  multi-rooted designs, ``master_clocks=True`` reproduces the *current
  scheme* of Section 5.1 (one ``C_<root>`` input per hierarchy root);
* ``"controlled"`` — separate compilation plus the synthesized controller of
  Section 5.2 enforcing the reported clock constraints by rendez-vous;
* ``"concurrent"`` — the same scheduling decisions, executed as one thread
  per component with barrier pairs at the rendez-vous;
* ``"ltta"`` — quasi-synchronous execution in the spirit of Section 4.2:
  each component is paced by its own clock and shared signals travel through
  sustained latches (the "bus"); protocols such as the LTTA's alternating
  flag absorb the oversampling, which is exactly what isochrony licenses.

All deployments draw their analyses from the design's shared
:class:`~repro.api.session.AnalysisContext`, so compiling after verifying
re-uses every clock calculus artefact already built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.codegen.batch import (
    BatchCompilationError,
    BatchOverflowError,
    BatchProgram,
    FleetResult,
)
from repro.codegen.concurrent import ConcurrentComposition
from repro.codegen.controller import (
    ControlledComposition,
    dependency_order,
    shared_signals,
    synthesize_controller,
)
from repro.codegen.runtime import EndOfStream, StreamIO
from repro.codegen.interpreted import compile_interpreted
from repro.codegen.sequential import compile_process, render_c_source
from repro.lang.normalize import NormalizedProcess
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.semantics.interpreter import ABSENT, SignalInterpreter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Design

STRATEGIES = ("sequential", "controlled", "concurrent", "ltta")

#: execution tiers for the generated step functions (see docs/architecture.md):
#: ``specialized`` is the exec-compiled step function of Section 3.6 with IO
#: and delay registers bound into closures, ``interpreter`` walks the
#: scheduled ops with one dispatch per op (the reference), ``batched`` steps a
#: whole fleet of instances per call on numpy lanes.
RUNTIMES = ("specialized", "interpreter", "batched")

_COMPONENT_COMPILERS = {
    "specialized": compile_process,
    "interpreter": compile_interpreted,
}


class DeploymentError(Exception):
    """Raised when a design cannot be deployed with the requested strategy."""


def _record_run(strategy: str, runtime: str, steps: int, instances: int = 1) -> None:
    labels = {"strategy": strategy, "runtime": runtime}
    obs_metrics.GLOBAL.counter("repro_deploy_runs_total", labels).inc()
    obs_metrics.GLOBAL.counter("repro_deploy_steps_total", labels).inc(steps)
    obs_metrics.GLOBAL.counter("repro_deploy_instances_total", labels).inc(instances)


class Deployment:
    """Common surface of the four execution schemes."""

    strategy: str = "abstract"
    #: which execution tier backs :meth:`step` / :meth:`run` (see ``RUNTIMES``)
    runtime: str = "specialized"

    @property
    def inputs(self) -> Tuple[str, ...]:
        raise NotImplementedError

    @property
    def outputs(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def step(self, io: StreamIO) -> bool:
        """One global reaction; False when an input stream is exhausted."""
        raise NotImplementedError

    def run(
        self, inputs: Mapping[str, Sequence[object]], max_steps: int = 1_000_000
    ) -> Dict[str, List[object]]:
        """Reset, iterate until the inputs run dry, return the output flows."""
        self.reset()
        io = StreamIO({name: list(values) for name, values in inputs.items()})
        if obs_trace.TRACING:
            with obs_trace.span(
                "deploy.run", strategy=self.strategy, runtime=self.runtime
            ) as active:
                steps = self._drive(io, max_steps)
                active.set_tag("steps", steps)
        else:
            steps = self._drive(io, max_steps)
        _record_run(self.strategy, self.runtime, steps)
        return {name: io.output(name) for name in self.outputs}

    def _drive(self, io: StreamIO, max_steps: int) -> int:
        steps = 0
        while steps < max_steps and self.step(io):
            steps += 1
        return steps

    def listing(self) -> str:
        """A C-like rendering of the deployed code (paper-figure style)."""
        raise NotImplementedError


class SequentialDeployment(Deployment):
    """Sections 3.6 / 5.1: the composition compiled to one step function."""

    strategy = "sequential"

    def __init__(
        self, design: "Design", master_clocks: bool = False, runtime: str = "specialized"
    ):
        if runtime not in _COMPONENT_COMPILERS:
            raise DeploymentError(
                f"unknown runtime {runtime!r} for the sequential strategy; "
                f"expected one of {tuple(_COMPONENT_COMPILERS)} (or 'batched' "
                "via BatchedDeployment)"
            )
        self.design = design
        self.runtime = runtime
        self.compiled = _COMPONENT_COMPILERS[runtime](
            design.analysis, master_clocks=master_clocks
        )

    @property
    def inputs(self) -> Tuple[str, ...]:
        return self.compiled.inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self.compiled.outputs

    @property
    def master_clock_inputs(self) -> List[str]:
        return list(self.compiled.master_clock_inputs)

    def reset(self) -> None:
        self.compiled.reset()

    def step(self, io: StreamIO) -> bool:
        return self.compiled.step(io)

    def _drive(self, io: StreamIO, max_steps: int) -> int:
        # every tier carries its own run loop; the specialized one in
        # particular iterates a bound closure with no per-step dispatch
        return self.compiled.run(io, max_steps)

    def listing(self) -> str:
        return render_c_source(self.compiled.program)


class ControlledDeployment(Deployment):
    """Section 5.2: separate compilation plus the synthesized controller."""

    strategy = "controlled"

    def __init__(self, design: "Design", runtime: str = "specialized"):
        self.design = design
        self.runtime = runtime
        compiled = _compile_components(design, runtime)
        self.controlled: ControlledComposition = synthesize_controller(
            compiled, design.criterion()
        )

    @property
    def constraints(self):
        return list(self.controlled.constraints)

    @property
    def inputs(self) -> Tuple[str, ...]:
        return self.controlled.external_inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self.controlled.external_outputs

    def reset(self) -> None:
        self.controlled.reset()

    def step(self, io: StreamIO) -> bool:
        return self.controlled.step(io)

    def listing(self) -> str:
        return self.controlled.c_listing()


class ConcurrentDeployment(ControlledDeployment):
    """Section 5.2, concurrent variant: the controller's schedule on threads.

    The same synthesized :class:`ControlledComposition` decides every global
    step; :class:`~repro.codegen.concurrent.ConcurrentComposition` executes
    it with one thread per component and barrier pairs.  ``run`` defaults
    to 10,000 global steps.
    """

    strategy = "concurrent"

    def step(self, io: StreamIO) -> bool:
        raise DeploymentError(
            "the concurrent deployment runs whole flows (threads join on stream "
            "exhaustion); use run(inputs) — or the 'controlled' strategy for "
            "step-by-step execution with the same scheduling decisions"
        )

    def run(
        self, inputs: Mapping[str, Sequence[object]], max_steps: int = 10_000
    ) -> Dict[str, List[object]]:
        return super().run(inputs, max_steps)

    def _drive(self, io: StreamIO, max_steps: int) -> int:
        return ConcurrentComposition(self.controlled).run(io, max_steps)


class LttaDeployment(Deployment):
    """Section 4.2 in execution form: independently paced devices, sustained bus.

    Each component is interpreted on its own clock: component ``c`` activates
    at every micro-instant ``t`` with ``t % paces[c] == 0`` (default pace 1).
    At an activation it reads one fresh value from each of its external input
    streams, reads the *sustained* last value of each shared signal from the
    bus latch, and publishes its outputs (shared ones to the latch, external
    ones to the environment).  With all paces equal this coincides with the
    synchronous product; with drifting paces it is the LTTA setting, where a
    value may be observed several times — sound exactly when the design's
    protocol (e.g. the alternating flag) filters duplicates, which is the
    guarantee Theorem 1's isochrony gives for weakly hierarchic designs.
    """

    strategy = "ltta"
    runtime = "interpreter"

    def __init__(self, design: "Design", paces: Optional[Mapping[str, int]] = None):
        self.design = design
        self.components: List[NormalizedProcess] = list(design.components)
        if not self.components:
            raise DeploymentError("the LTTA deployment needs at least one component")
        self.paces: Dict[str, int] = {
            component.name: max(1, int((paces or {}).get(component.name, 1)))
            for component in self.components
        }
        self._shared: Set[str] = shared_signals(self.components)
        self._order: List[NormalizedProcess] = dependency_order(self.components)
        self._interpreters: Dict[str, SignalInterpreter] = {
            component.name: SignalInterpreter(component) for component in self.components
        }
        self._latch: Dict[str, object] = {}
        self._instant = 0

    @property
    def inputs(self) -> Tuple[str, ...]:
        names: List[str] = []
        for component in self._order:
            for signal in component.inputs:
                if signal not in self._shared and signal not in names:
                    names.append(signal)
        return tuple(names)

    @property
    def outputs(self) -> Tuple[str, ...]:
        names: List[str] = []
        for component in self._order:
            for signal in component.outputs:
                if signal not in self._shared and signal not in names:
                    names.append(signal)
        return tuple(names)

    def reset(self) -> None:
        for interpreter in self._interpreters.values():
            interpreter.reset()
        self._latch = {}
        self._instant = 0

    def step(self, io: StreamIO) -> bool:
        """One micro-instant: activate every component whose pace divides it."""
        instant = self._instant
        for component in self._order:
            if instant % self.paces[component.name] != 0:
                continue
            values: Dict[str, object] = {}
            for signal in component.inputs:
                if signal in self._shared:
                    values[signal] = self._latch.get(signal, ABSENT)
                else:
                    try:
                        values[signal] = io.read(signal)
                    except EndOfStream:
                        return False
            result = self._interpreters[component.name].step(values)
            for signal in component.outputs:
                if not result.present(signal):
                    continue
                if signal in self._shared:
                    self._latch[signal] = result.value(signal)
                else:
                    io.write(signal, result.value(signal))
        self._instant += 1
        return True

    def listing(self) -> str:
        lines = ["/* quasi-synchronous main loop (Section 4.2 style) */", "bool ltta_iterate() {"]
        for component in self._order:
            pace = self.paces[component.name]
            lines.append(f"  if (t % {pace} == 0) {{  /* device {component.name} */")
            for signal in component.inputs:
                if signal in self._shared:
                    lines.append(f"    {signal} = bus_{signal};  /* sustained */")
                else:
                    lines.append(f"    if (!r_{component.name}_{signal}(&{signal})) return FALSE;")
            lines.append(f"    {component.name}_iterate();")
            for signal in component.outputs:
                if signal in self._shared:
                    lines.append(f"    bus_{signal} = {signal};")
            lines.append("  }")
        lines.append("  t = t + 1;")
        lines.append("  return TRUE;")
        lines.append("}")
        return "\n".join(lines)


class BatchedDeployment(Deployment):
    """The fleet tier: one call steps thousands of independent instances.

    Compiles the design once (sequential schedule, Section 3.6 / 5.1) into
    two engines: the vectorized numpy kernel of :mod:`repro.codegen.batch`
    for instances inside the bool/int64 fragment, and the scalar
    :class:`~repro.codegen.sequential.CompiledProcess` for the rest —
    results are lane-identical either way.  ``run(inputs)`` executes one
    instance; :meth:`run_many` executes a whole fleet and reports how many
    lanes took each path.
    """

    strategy = "sequential"
    runtime = "batched"

    def __init__(
        self, design: "Design", master_clocks: bool = False, max_steps: int = 1_000_000
    ):
        self.design = design
        self.max_steps = max_steps
        self._scalar = compile_process(design.analysis, master_clocks=master_clocks)
        self._batch: Optional[BatchProgram] = None
        self._batch_unavailable: Optional[str] = None
        try:
            self._batch = BatchProgram(self._scalar.program)
        except BatchCompilationError as error:
            self._batch_unavailable = str(error)

    @property
    def inputs(self) -> Tuple[str, ...]:
        return self._scalar.inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self._scalar.outputs

    @property
    def master_clock_inputs(self) -> List[str]:
        return list(self._scalar.master_clock_inputs)

    @property
    def vectorized(self) -> bool:
        """Whether the design itself compiled to the numpy fast path."""
        return self._batch is not None

    def reset(self) -> None:
        self._scalar.reset()

    def step(self, io: StreamIO) -> bool:
        raise DeploymentError(
            "the batched runtime executes whole fleets; use run(inputs) for one "
            "instance or run_many(instances) for a batch — or runtime="
            "'specialized' for step-by-step execution of the same schedule"
        )

    def run(
        self, inputs: Mapping[str, Sequence[object]], max_steps: Optional[int] = None
    ) -> Dict[str, List[object]]:
        return self.run_many([inputs], max_steps=max_steps).outputs[0]

    def run_many(
        self,
        instances: Sequence[Mapping[str, Sequence[object]]],
        max_steps: Optional[int] = None,
    ) -> FleetResult:
        """Run every instance to stream exhaustion, vectorizing where possible."""
        limit = self.max_steps if max_steps is None else max_steps
        if obs_trace.TRACING:
            with obs_trace.span(
                "deploy.run",
                strategy=self.strategy,
                runtime=self.runtime,
                instances=len(instances),
            ) as active:
                result = self._run_many(instances, limit)
                active.set_tag("steps", sum(result.steps))
                active.set_tag("vectorized", result.vectorized)
                active.set_tag("fallback", result.fallback)
        else:
            result = self._run_many(instances, limit)
        _record_run(
            self.strategy, self.runtime, sum(result.steps), instances=len(instances)
        )
        registry = obs_metrics.GLOBAL
        registry.counter("repro_deploy_batch_lanes_total", {"path": "vectorized"}).inc(
            result.vectorized
        )
        registry.counter("repro_deploy_batch_lanes_total", {"path": "fallback"}).inc(
            result.fallback
        )
        if instances:
            registry.gauge("repro_deploy_batch_occupancy").set(
                result.vectorized / len(instances)
            )
        return result

    def _run_many(
        self, instances: Sequence[Mapping[str, Sequence[object]]], limit: int
    ) -> FleetResult:
        n = len(instances)
        results: List[Optional[Tuple[int, Dict[str, List[object]]]]] = [None] * n
        vector_rows: List[int] = []
        staged = None
        batch = self._batch
        if batch is not None and n:
            # fast path: stage the whole fleet in one pass — it accepts
            # exactly when every lane is vectorizable, so an all-eligible
            # fleet skips the per-lane eligibility scans entirely
            staged = batch.stage_fleet(instances)
            if staged is not None:
                vector_rows = list(range(n))
            else:
                vector_rows = [
                    index
                    for index in range(n)
                    if batch.lane_vectorizable(instances[index])
                ]
        if vector_rows:
            try:
                if staged is not None:
                    steps, outputs = batch.run_staged(staged, n, max_steps=limit)
                else:
                    steps, outputs = batch.run_many(
                        [instances[index] for index in vector_rows], max_steps=limit
                    )
            except BatchOverflowError:
                # a numeric lane approached the int64 range: redo the whole
                # batch on the scalar tier, which carries exact big ints
                vector_rows = []
            else:
                for position, index in enumerate(vector_rows):
                    results[index] = (steps[position], outputs[position])
        fallback = 0
        engine = self._scalar
        for index in range(n):
            if results[index] is not None:
                continue
            fallback += 1
            engine.reset()
            io = StreamIO({name: list(values) for name, values in instances[index].items()})
            steps_taken = engine.run(io, limit)
            results[index] = (
                steps_taken,
                {name: io.output(name) for name in engine.outputs},
            )
        return FleetResult(
            outputs=[entry[1] for entry in results],
            steps=[entry[0] for entry in results],
            vectorized=len(vector_rows),
            fallback=fallback,
        )

    def listing(self) -> str:
        return render_c_source(self._scalar.program)


def _compile_components(design: "Design", runtime: str = "specialized") -> List[object]:
    """Separately compile every component, reusing the session's analyses."""
    compiler = _COMPONENT_COMPILERS.get(runtime)
    if compiler is None:
        raise DeploymentError(
            f"unknown runtime {runtime!r} for the compositional strategies; "
            f"expected one of {tuple(_COMPONENT_COMPILERS)}"
        )
    compiled: List[object] = []
    for component in design.components:
        analysis = design.context.analysis(component)
        if not analysis.is_compilable() or not analysis.is_hierarchic():
            raise DeploymentError(
                f"component {component.name!r} is not endochronous "
                f"(compilable={analysis.is_compilable()}, roots={analysis.root_count()}); "
                "the compositional schemes of Section 5.2 compile components separately "
                "and need each of them endochronous"
            )
        compiled.append(compiler(analysis))
    return compiled


def build_deployment(
    design: "Design", strategy: str = "sequential", runtime: str = "specialized", **options
) -> Deployment:
    """Instantiate the deployment scheme named by ``strategy``.

    ``runtime`` selects the execution tier (see ``RUNTIMES``): the sequential
    strategy accepts all three (``"batched"`` yields the fleet-capable
    :class:`BatchedDeployment`); the compositional strategies accept
    ``"specialized"`` / ``"interpreter"`` per component.
    """
    if runtime not in RUNTIMES:
        raise DeploymentError(f"unknown runtime {runtime!r}; expected one of {RUNTIMES}")
    if strategy == "sequential":
        master_clocks = bool(options.get("master_clocks"))
        if runtime == "batched":
            return BatchedDeployment(
                design,
                master_clocks=master_clocks,
                max_steps=int(options.get("max_steps", 1_000_000)),
            )
        return SequentialDeployment(design, master_clocks=master_clocks, runtime=runtime)
    if runtime == "batched":
        raise DeploymentError(
            "the 'batched' runtime applies to the sequential strategy only "
            "(the compositional schemes synchronize per step)"
        )
    if strategy == "controlled":
        return ControlledDeployment(design, runtime=runtime)
    if strategy == "concurrent":
        return ConcurrentDeployment(design, runtime=runtime)
    if strategy == "ltta":
        return LttaDeployment(design, paces=options.get("paces"))
    raise DeploymentError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
