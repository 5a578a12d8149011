"""Controller synthesis: the compositional code generation scheme of Section 5.2.

Given separately compiled endochronous components and the clock constraints
reported by the clock calculus on their composition (for the producer /
consumer pair: ``[¬a] = [b]``), the synthesized controller schedules the
components so that:

* a component whose current step does not involve a constrained clock runs
  freely (no synchronization is imposed on ``a`` or ``b`` alone);
* a component that reaches a constrained clock *suspends* (its freshly read
  input is kept pending and no new input is read) until every other party of
  the constraint has reached the matching clock;
* when all parties have arrived the rendez-vous fires: the suspended steps
  execute in dependency order and the shared signals flow from producers to
  consumers within the same global step.

This reproduces the behaviour of the generated ``main_iterate`` listing of
the paper without adding any master clock to the interface: the interface of
the controlled composition is the union of the component interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.codegen.runtime import EndOfStream, StreamIO
from repro.codegen.sequential import CompiledProcess
from repro.lang.ast import ClockExpressionSyntax, ClockFalse, ClockOf, ClockTrue
from repro.lang.normalize import NormalizedProcess
from repro.properties.composition import CompositionVerdict


@dataclass(frozen=True)
class ClockLiteral:
    """A sampled clock ``[x]`` / ``[¬x]`` on an input signal of one component."""

    component: str
    signal: str
    when_true: bool

    def holds(self, value: object) -> bool:
        return bool(value) if self.when_true else not bool(value)

    def __str__(self) -> str:
        return f"[{'' if self.when_true else '¬'}{self.signal}]@{self.component}"


@dataclass
class ClockConstraintSpec:
    """One reported clock constraint between two components."""

    left: ClockLiteral
    right: ClockLiteral

    def parties(self) -> Tuple[str, str]:
        return (self.left.component, self.right.component)

    def literal_for(self, component: str) -> Optional[ClockLiteral]:
        if self.left.component == component:
            return self.left
        if self.right.component == component:
            return self.right
        return None

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


def shared_signals(components: Sequence[NormalizedProcess]) -> Set[str]:
    """Signals one component produces and another consumes."""
    produced: Set[str] = set()
    consumed: Set[str] = set()
    for component in components:
        produced.update(component.outputs)
        consumed.update(component.inputs)
    return produced & consumed


def dependency_order(components: Sequence[NormalizedProcess]) -> List[NormalizedProcess]:
    """Producers of shared signals before their consumers, stable on ties."""
    produced_by: Dict[str, str] = {}
    for component in components:
        for name in component.outputs:
            produced_by[name] = component.name
    dependencies: Dict[str, Set[str]] = {component.name: set() for component in components}
    for component in components:
        for name in component.inputs:
            producer = produced_by.get(name)
            if producer and producer != component.name:
                dependencies[component.name].add(producer)
    by_name = {component.name: component for component in components}
    order: List[str] = []
    remaining = dict(dependencies)
    while remaining:
        ready = sorted(name for name, deps in remaining.items() if deps <= set(order))
        if not ready:
            order.extend(sorted(remaining))
            break
        order.append(ready[0])
        del remaining[ready[0]]
    return [by_name[name] for name in order]


class _ComponentIO:
    """IO adapter serving a component from pre-read inputs and shared values.

    The adapter is persistent: one instance per component lives across global
    steps and is :meth:`rebind`-ed with the step's fresh inputs.  A stable IO
    identity lets the exec-compiled tier
    (:class:`~repro.codegen.sequential.CompiledProcess`) keep its bound
    step closure across steps instead of recompiling the binding each time.
    """

    def __init__(
        self,
        external: Mapping[str, object],
        shared_in: Mapping[str, object],
        outer: StreamIO,
        shared_outputs: Set[str],
        shared_store: Dict[str, object],
    ):
        self._external = dict(external)
        self._shared_in = dict(shared_in)
        self._outer = outer
        self._shared_outputs = shared_outputs
        self._shared_store = shared_store

    def rebind(
        self,
        external: Mapping[str, object],
        shared_in: Mapping[str, object],
        outer: StreamIO,
    ) -> None:
        """Point the adapter at this step's values, keeping its identity."""
        self._external = dict(external)
        self._shared_in = dict(shared_in)
        self._outer = outer

    def read(self, name: str) -> object:
        if name in self._external:
            return self._external[name]
        if name in self._shared_in:
            return self._shared_in[name]
        raise EndOfStream(name)

    def write(self, name: str, value: object) -> None:
        if name in self._shared_outputs:
            self._shared_store[name] = value
        else:
            self._outer.write(name, value)


@dataclass
class _ComponentState:
    """Scheduling state of one component inside the controlled composition."""

    compiled: CompiledProcess
    pending_inputs: Dict[str, object] = field(default_factory=dict)
    arrived: Dict[int, bool] = field(default_factory=dict)  # constraint index -> waiting
    io: Optional[_ComponentIO] = None  # persistent adapter, rebound per step


class ControlledComposition:
    """Separately compiled components scheduled by a synthesized controller."""

    def __init__(
        self,
        components: Sequence[CompiledProcess],
        constraints: Sequence[ClockConstraintSpec],
    ):
        self.components: Dict[str, _ComponentState] = {
            compiled.process.name: _ComponentState(compiled) for compiled in components
        }
        self.constraints = list(constraints)
        processes = [compiled.process for compiled in components]
        self._order = [process.name for process in dependency_order(processes)]
        self._shared_signals = shared_signals(processes)
        self._shared_store: Dict[str, object] = {}
        for state in self.components.values():
            for index, constraint in enumerate(self.constraints):
                if constraint.literal_for(state.compiled.process.name) is not None:
                    state.arrived[index] = False

    # -- interface --------------------------------------------------------------------
    @property
    def external_inputs(self) -> Tuple[str, ...]:
        names: List[str] = []
        for name in self._order:
            for signal in self.components[name].compiled.process.inputs:
                if signal not in self._shared_signals and signal not in names:
                    names.append(signal)
        return tuple(names)

    @property
    def external_outputs(self) -> Tuple[str, ...]:
        names: List[str] = []
        for name in self._order:
            for signal in self.components[name].compiled.process.outputs:
                if signal not in self._shared_signals and signal not in names:
                    names.append(signal)
        return tuple(names)

    def reset(self) -> None:
        for state in self.components.values():
            state.compiled.reset()
            state.pending_inputs = {}
            for index in state.arrived:
                state.arrived[index] = False
        # cleared in place: the persistent per-component IO adapters hold a
        # reference to this dict
        self._shared_store.clear()

    # -- one controlled global step ------------------------------------------------------
    def step(self, io: StreamIO) -> bool:
        """One iteration of the controlled main loop.

        Follows the structure of the paper's generated ``main_iterate``:
        decide which components may read a new input, read, evaluate the
        constraint literals, fire rendez-vous when every party has arrived,
        and execute the components that are allowed to run.
        """
        waiting: Dict[str, bool] = {}
        for name, state in self.components.items():
            waiting[name] = any(state.arrived.values())

        # read new inputs for components that are not suspended
        fresh_inputs: Dict[str, Dict[str, object]] = {}
        for name in self._order:
            state = self.components[name]
            if waiting[name]:
                fresh_inputs[name] = dict(state.pending_inputs)
                continue
            values: Dict[str, object] = {}
            for signal in state.compiled.process.inputs:
                if signal in self._shared_signals:
                    continue
                try:
                    values[signal] = io.read(signal)
                except EndOfStream:
                    return False
            fresh_inputs[name] = values
            state.pending_inputs = dict(values)

        # evaluate arrival of every constraint party
        for index, constraint in enumerate(self.constraints):
            for literal in (constraint.left, constraint.right):
                state = self.components[literal.component]
                if waiting[literal.component]:
                    continue  # arrival flag keeps its pending value
                value = fresh_inputs[literal.component].get(literal.signal)
                state.arrived[index] = value is not None and literal.holds(value)

        fired: Dict[int, bool] = {}
        for index, constraint in enumerate(self.constraints):
            left_state = self.components[constraint.left.component]
            right_state = self.components[constraint.right.component]
            fired[index] = left_state.arrived[index] and right_state.arrived[index]

        # a component runs if every constraint it is part of is either not
        # pending for it or fires in this step
        for name in self._order:
            state = self.components[name]
            may_run = all(
                (not state.arrived[index]) or fired[index] for index in state.arrived
            )
            if not may_run:
                continue
            shared_in = {
                signal: self._shared_store[signal]
                for signal in state.compiled.process.inputs
                if signal in self._shared_signals and signal in self._shared_store
            }
            component_io = state.io
            if component_io is None:
                component_io = state.io = _ComponentIO(
                    external=fresh_inputs[name],
                    shared_in=shared_in,
                    outer=io,
                    shared_outputs=self._shared_signals
                    & set(state.compiled.process.outputs),
                    shared_store=self._shared_store,
                )
            else:
                component_io.rebind(fresh_inputs[name], shared_in, io)
            if not state.compiled.step(component_io):
                return False
            state.pending_inputs = {}

        # clear the arrival flags of fired constraints
        for index, constraint in enumerate(self.constraints):
            if fired[index]:
                self.components[constraint.left.component].arrived[index] = False
                self.components[constraint.right.component].arrived[index] = False
        return True

    def run(self, io: StreamIO, max_steps: int = 1_000_000) -> int:
        steps = 0
        while steps < max_steps and self.step(io):
            steps += 1
        return steps

    # -- listing -----------------------------------------------------------------------
    def c_listing(self) -> str:
        """A C-like rendering of the controlled main loop (paper, Section 5.2)."""
        lines = ["bool main_iterate() {"]
        for index, constraint in enumerate(self.constraints):
            lines.append(f"  /* rendez-vous {index}: {constraint} */")
        for name in self._order:
            state = self.components[name]
            inputs = [
                signal
                for signal in state.compiled.process.inputs
                if signal not in self._shared_signals
            ]
            lines.append(f"  /* component {name} */")
            lines.append(f"  C_{name} = !waiting_{name};")
            for signal in inputs:
                lines.append(f"  if (C_{name}) {{ if (!r_main_{signal}(&{signal})) return FALSE; }}")
            for index in state.arrived:
                literal = self.constraints[index].literal_for(name)
                negation = "" if literal and literal.when_true else "!"
                lines.append(
                    f"  if (C_{name}) r{index}_{name} = {negation}{literal.signal if literal else '?'};"
                )
        for index, _constraint in enumerate(self.constraints):
            parties = " && ".join(
                f"r{index}_{party}" for party in self.constraints[index].parties()
            )
            lines.append(f"  fire_{index} = {parties};")
        for name in self._order:
            state = self.components[name]
            guards = (
                " && ".join(
                    f"(!r{index}_{name} || fire_{index})" for index in state.arrived
                )
                or "TRUE"
            )
            lines.append(f"  if ({guards}) {name}_iterate();")
        lines.append("  return TRUE;")
        lines.append("}")
        return "\n".join(lines)


def _literal_from_expression(
    expression: ClockExpressionSyntax, owners: Mapping[str, str]
) -> Optional[ClockLiteral]:
    """Interpret a clock expression as a literal on a component's input signal."""
    if isinstance(expression, ClockTrue):
        name, polarity = expression.name, True
    elif isinstance(expression, ClockFalse):
        name, polarity = expression.name, False
    else:
        return None
    owner = owners.get(name)
    if owner is None:
        return None
    return ClockLiteral(component=owner, signal=name, when_true=polarity)


def synthesize_controller(
    components: Sequence[CompiledProcess],
    verdict: CompositionVerdict,
) -> ControlledComposition:
    """Build the controlled composition from the criterion's reported constraints.

    Only constraints relating sampled clocks of *external inputs of two
    different components* become rendez-vous points — exactly the constraints
    (such as ``[¬a] = [b]``) that require synchronizing the independently
    paced components.  Constraints involving shared (internal) signals are
    already enforced by the data-flow through the shared store.
    """
    owners: Dict[str, str] = {}
    shared = shared_signals([compiled.process for compiled in components])
    for compiled in components:
        for signal in compiled.process.inputs:
            if signal not in shared:
                owners[signal] = compiled.process.name

    constraints: List[ClockConstraintSpec] = []
    # a criterion verdict assembled from persisted artifacts materializes
    # its composition analysis here, on demand — synthesis reads the
    # implied equalities off the live clock hierarchy
    analysis = verdict.composition_analysis()
    if analysis is not None:
        from repro.lang.ast import ClockFalse as _CF, ClockTrue as _CT

        candidate_literals: List[ClockExpressionSyntax] = []
        boolean = set(analysis.process.boolean_signals())
        for signal in sorted(owners):
            if signal in boolean:
                candidate_literals.append(_CT(signal))
                candidate_literals.append(_CF(signal))
        for left, right in analysis.hierarchy.implied_equalities(candidate_literals):
            left_literal = _literal_from_expression(left, owners)
            right_literal = _literal_from_expression(right, owners)
            if left_literal is None or right_literal is None:
                continue
            if left_literal.component == right_literal.component:
                continue
            constraints.append(ClockConstraintSpec(left=left_literal, right=right_literal))
    return ControlledComposition(components, constraints)
