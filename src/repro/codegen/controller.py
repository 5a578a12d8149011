"""Controller synthesis: the compositional code generation scheme of Section 5.2.

Given separately compiled endochronous components and the clock constraints
reported by the clock calculus on their composition (for the producer /
consumer pair: ``[¬a] = [b]``), the synthesized controller schedules the
components so that:

* a component whose current step does not involve a constrained clock runs
  freely (no synchronization is imposed on ``a`` or ``b`` alone);
* a component that reaches a constrained clock *suspends* (the value that
  decided its literal stays pending and it reads nothing new) until every
  other party of the constraint has reached the matching clock;
* when all parties have arrived the rendez-vous fires: the suspended steps
  execute in dependency order and the shared signals flow from producers to
  consumers within the same global step.

:class:`ControlledComposition` is the one schedule of a global step, and
both Section 5.2 vehicles execute it: :meth:`~ControlledComposition.step`
runs the components one after the other, and
:class:`~repro.codegen.concurrent.ConcurrentComposition` runs them on one
thread per component.  Two rules make a step's flows those of the
synchronous composition:

* *Pending values.*  A step reads its external inputs itself, only those
  on its active clocks; the controller reads ahead only the signals of the
  constraint literals.  A value read but not consumed by a completed step
  stays pending and is served to the next read of its signal.
* *Shared values last one global step.*  A component whose step asks for a
  shared value that no producer wrote in this global step sits the step
  out: it writes nothing, its registers are untouched and the values it
  read stay pending.

This reproduces the behaviour of the generated ``main_iterate`` listing of
the paper without adding any master clock to the interface: the interface of
the controlled composition is the union of the component interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.codegen.runtime import EndOfStream, StreamIO
from repro.codegen.sequential import CompiledProcess
from repro.lang.ast import ClockExpressionSyntax, ClockFalse, ClockTrue
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
    """One component's persistent IO: pending external values, the shared store.

    One adapter per component lives as long as the composition, so the
    exec-compiled tier binds its step closure once.  A shared read the
    current global step does not carry fails and marks the adapter
    ``starved``.
    """

    def __init__(self, shared: Set[str], store: Dict[str, object]):
        self.outer: Optional[StreamIO] = None
        self.pending: Dict[str, object] = {}
        self.taken: Dict[str, object] = {}
        self.starved = False
        self._shared = shared
        self._store = store

    def peek(self, name: str, outer: StreamIO) -> object:
        """The next value of an external signal, read ahead and kept pending."""
        if name not in self.pending:
            self.pending[name] = outer.read(name)
        return self.pending[name]

    def read(self, name: str) -> object:
        if name in self._shared:
            if name not in self._store:
                self.starved = True
                raise EndOfStream(name)
            return self._store[name]
        if name in self.pending:
            value = self.pending.pop(name)
        else:
            value = self.outer.read(name)
        self.taken[name] = value
        return value

    def write(self, name: str, value: object) -> None:
        if name in self._shared:
            self._store[name] = value
        else:
            self.outer.write(name, value)


class ControlledComposition:
    """Separately compiled components scheduled by a synthesized controller.

    The schedule of one global step is two operations, shared by both
    Section 5.2 vehicles: :meth:`plan` opens the step and decides which
    components run, :meth:`execute` runs one of them.  :meth:`step` is the
    sequential vehicle; :class:`~repro.codegen.concurrent.ConcurrentComposition`
    runs the same two operations on one thread per component.
    """

    def __init__(
        self,
        components: Sequence[CompiledProcess],
        constraints: Sequence[ClockConstraintSpec],
    ):
        self.constraints = list(constraints)
        processes = [compiled.process for compiled in components]
        by_name = {compiled.process.name: compiled for compiled in components}
        #: the components, producers of shared signals before their consumers
        self.components: Dict[str, CompiledProcess] = {
            process.name: by_name[process.name] for process in dependency_order(processes)
        }
        self._shared_signals = shared_signals(processes)
        self._shared_store: Dict[str, object] = {}
        self._io = {
            name: _ComponentIO(self._shared_signals, self._shared_store)
            for name in self.components
        }
        #: whether a component step completed in the current global step
        #: (None before the first one)
        self._progressed: Optional[bool] = None

    # -- interface --------------------------------------------------------------------
    @property
    def external_inputs(self) -> Tuple[str, ...]:
        return self._external("inputs")

    @property
    def external_outputs(self) -> Tuple[str, ...]:
        return self._external("outputs")

    def _external(self, side: str) -> Tuple[str, ...]:
        names: List[str] = []
        for compiled in self.components.values():
            for signal in getattr(compiled.process, side):
                if signal not in self._shared_signals and signal not in names:
                    names.append(signal)
        return tuple(names)

    def reset(self) -> None:
        for compiled in self.components.values():
            compiled.reset()
        for adapter in self._io.values():
            adapter.pending.clear()
            adapter.taken.clear()
        self._shared_store.clear()
        self._progressed = None

    # -- the schedule of one global step -------------------------------------------------
    def plan(self, io: StreamIO) -> Optional[List[str]]:
        """Open a global step; the components that run in it, in dependency order.

        Shared values last one global step, so the store is cleared first.
        Each constraint literal is evaluated on its party's pending value
        (read ahead from ``io`` when none is pending).  A party whose literal
        holds has *arrived*; the rendez-vous fires when every party has
        arrived.  An arrived party of a rendez-vous that does not fire sits
        the step out, its literal's value still pending, so it is suspended
        until the other side arrives.  Returns ``None`` when a literal's
        stream has run dry, or when the previous global step completed no
        component step: it changed nothing but the pending values, which
        now decide every later step the same way.
        """
        if self._progressed is False:
            return None
        self._progressed = False
        self._shared_store.clear()
        fired: List[Set[str]] = []
        suspended: Set[str] = set()
        for constraint in self.constraints:
            arrived: Set[str] = set()
            for literal in (constraint.left, constraint.right):
                try:
                    value = self._io[literal.component].peek(literal.signal, io)
                except EndOfStream:
                    return None
                if literal.holds(value):
                    arrived.add(literal.component)
            if len(arrived) == 2:
                fired.append(arrived)
            else:
                suspended |= arrived
        # a rendez-vous one of whose parties is suspended elsewhere does not
        # fire either
        while True:
            held = {name for parties in fired if parties & suspended for name in parties}
            if held <= suspended:
                break
            suspended |= held
        return [name for name in self.components if name not in suspended]

    def execute(self, name: str, io: StreamIO) -> bool:
        """Run component ``name``'s step in the current global step.

        Returns False when one of its external streams has run dry.  A step
        that asks for a shared value the global step does not carry sits the
        step out: every read precedes every register update and every write
        in a generated step, so its registers are untouched and it wrote
        nothing; the external values it read stay pending.
        """
        adapter = self._io[name]
        adapter.outer = io
        if self.components[name].step(adapter):
            adapter.taken.clear()
            self._progressed = True
            return True
        adapter.pending.update(adapter.taken)
        adapter.taken.clear()
        starved, adapter.starved = adapter.starved, False
        return starved

    def step(self, io: StreamIO) -> bool:
        """One global step, the components executed one after the other."""
        running = self.plan(io)
        if running is None:
            return False
        return all(self.execute(name, io) for name in running)

    def run(self, io: StreamIO, max_steps: int = 1_000_000) -> int:
        steps = 0
        while steps < max_steps and self.step(io):
            steps += 1
        return steps

    # -- listing -----------------------------------------------------------------------
    def c_listing(self) -> str:
        """A C-like rendering of the global step :meth:`plan` and :meth:`execute` run.

        Only the signals of the constraint literals are read ahead, and the
        values stay pending; every other input is read by the component's
        own ``<c>_iterate()`` (paper, Section 5.2).
        """
        lines = ["bool main_iterate() {"]
        for index, constraint in enumerate(self.constraints):
            lines.append(f"  /* rendez-vous {index}: {constraint} */")
        lines.append("  if (!progressed) return FALSE;  /* the last step changed nothing */")
        lines.append("  progressed = FALSE;")
        lines.append("  clear_shared();  /* shared values last one global step */")
        involved: Dict[str, List[int]] = {name: [] for name in self.components}
        peeked: Set[Tuple[str, str]] = set()
        for index, constraint in enumerate(self.constraints):
            for literal in (constraint.left, constraint.right):
                involved[literal.component].append(index)
                if (literal.component, literal.signal) not in peeked:
                    peeked.add((literal.component, literal.signal))
                    lines.append(
                        f"  if (!peek_{literal.signal}(&{literal.signal})) return FALSE;"
                        "  /* read ahead, kept pending */"
                    )
                negation = "" if literal.when_true else "!"
                lines.append(f"  r{index}_{literal.component} = {negation}{literal.signal};")
            parties = " && ".join(f"r{index}_{party}" for party in constraint.parties())
            lines.append(f"  fire_{index} = {parties};")
        for name, indices in involved.items():
            if indices:
                arrived = " || ".join(f"(r{index}_{name} && !fire_{index})" for index in indices)
                lines.append(f"  suspended_{name} = {arrived};")
        if self.constraints:
            lines.append("  do {  /* a rendez-vous with a suspended party is held back */")
            lines.append("    held = FALSE;")
            for index, constraint in enumerate(self.constraints):
                left, right = constraint.parties()
                lines.append(
                    f"    if (fire_{index} && (suspended_{left} || suspended_{right})) "
                    f"{{ fire_{index} = FALSE; suspended_{left} = suspended_{right} = held = TRUE; }}"
                )
            lines.append("  } while (held);")
        lines.append("  /* each step reads its own inputs, pending values first; a step")
        lines.append("     missing a shared value is STARVED: it sits out, its reads kept pending */")
        for name, indices in involved.items():
            guard = f"if (!suspended_{name}) " if indices else ""
            lines.append(
                f"  {guard}switch ({name}_iterate()) "
                "{ case DRY: return FALSE; case DONE: progressed = TRUE; case STARVED: ; }"
            )
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

    The controller reads the clock pairs the criterion persisted
    (:attr:`CompositionVerdict.constraints`) and derives nothing itself.
    Only pairs relating sampled clocks of *external inputs of two different
    components* become rendez-vous points — exactly the constraints (such
    as ``[¬a] = [b]``) that require synchronizing the independently paced
    components.  Constraints involving shared (internal) signals are already
    enforced by the data-flow through the shared store.
    """
    owners: Dict[str, str] = {}
    shared = shared_signals([compiled.process for compiled in components])
    for compiled in components:
        for signal in compiled.process.inputs:
            if signal not in shared:
                owners[signal] = compiled.process.name

    constraints: List[ClockConstraintSpec] = []
    for left, right in verdict.constraints:
        left_literal = _literal_from_expression(left, owners)
        right_literal = _literal_from_expression(right, owners)
        if left_literal is None or right_literal is None:
            continue
        if left_literal.component == right_literal.component:
            continue
        constraints.append(ClockConstraintSpec(left=left_literal, right=right_literal))
    return ControlledComposition(components, constraints)
