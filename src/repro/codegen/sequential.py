"""Sequential code generation (Sections 3.6 and 5.1).

For an endochronous (compilable and hierarchic) process, the generator
schedules a *step function*: one call computes one reaction, reading the
inputs that the clock calculus proves are needed and writing the outputs
that are present, exactly like the ``buffer_iterate`` transition function of
the paper.  The schedule is a :class:`StepProgram`, a stream of
:class:`StepOp` whose expressions are small trees (:class:`Ref`, ``Const``,
:class:`Apply`, :class:`Select`).  Every artefact is printed from it:

* the executable Python *bind* function of :class:`CompiledProcess`
  (:func:`render_bind_source`): binding an IO object returns a closure whose
  body is straight-line code with the readers/writers resolved once and the
  delay registers held in closure locals;
* a C-like listing that mirrors the paper's figures (:func:`render_c_source`),
  for documentation and inspection;
* the numpy fleet kernel of :mod:`repro.codegen.batch`.

For a process whose hierarchy has several roots the generator can either
refuse (the default — the compositional scheme of Section 5.2 should be used
instead) or reproduce Polychrony's *current scheme* (Section 5.1): add one
synchronized master-clock input per root (the ``C_a`` / ``C_b`` booleans of
the paper's ``main_iterate``) and rely on the environment to drive them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple, Union

from repro.lang.ast import (
    ClockBinary,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
    Const,
)
from repro.lang.normalize import (
    DelayEquation,
    FunctionEquation,
    MergeEquation,
    NormalizedProcess,
    SamplingEquation,
)
from repro.codegen.runtime import EndOfStream, StreamIO
from repro.properties.compilable import ProcessAnalysis


class CodeGenerationError(Exception):
    """Raised when a process cannot be compiled by the sequential scheme."""


class Ref(NamedTuple):
    """The presence (``kind="p"``) or value (``kind="v"``) of a signal.

    A reference doubles as a scheduling slot: a statement is ready once every
    reference its expression reads has been computed.
    """

    kind: str
    name: str


@dataclass(frozen=True)
class Apply:
    """An operator of the printers' tables applied to one or two operands."""

    operator: str
    args: Tuple["Expr", ...]


@dataclass(frozen=True)
class Select:
    """``then`` where ``condition`` holds, else ``otherwise`` (the merge default)."""

    condition: Ref
    then: Ref
    otherwise: Ref


Expr = Union[Ref, Const, Apply, Select]

#: the root activation and the empty clock, as presence expressions
ALWAYS = Const(True)
NEVER = Const(False)

# ``and not`` is the clock difference (and the ``[-x]`` sample); it is not a
# language operator, so no function equation can name it.
_PYTHON_OPERATORS = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "/": "({0} / {1})",
    "and": "({0} and {1})",
    "or": "({0} or {1})",
    "xor": "({0} != {1})",
    "=": "({0} == {1})",
    "/=": "({0} != {1})",
    "<": "({0} < {1})",
    "<=": "({0} <= {1})",
    ">": "({0} > {1})",
    ">=": "({0} >= {1})",
    "and not": "({0} and not {1})",
}

_PYTHON_UNARY = {
    "not": "(not {0})",
    "-": "(-{0})",
    "id": "{0}",
}

_C_OPERATORS = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "/": "({0} / {1})",
    "and": "({0} && {1})",
    "or": "({0} || {1})",
    "xor": "({0} != {1})",
    "=": "({0} == {1})",
    "/=": "({0} != {1})",
    "<": "({0} < {1})",
    "<=": "({0} <= {1})",
    ">": "({0} > {1})",
    ">=": "({0} >= {1})",
    "and not": "({0} && !{1})",
}

_C_UNARY = {
    "not": "(!{0})",
    "-": "(-{0})",
    "id": "{0}",
}


def expr_refs(expr: Optional[Expr]) -> Set[Ref]:
    """Every presence/value reference an expression reads."""
    if isinstance(expr, Ref):
        return {expr}
    if isinstance(expr, Apply):
        return set().union(*map(expr_refs, expr.args))
    if isinstance(expr, Select):
        return {expr.condition, expr.then, expr.otherwise}
    return set()


def python_expr(expr: Expr) -> str:
    """The Python rendering of an expression (``p_x`` / ``v_x`` variables)."""
    if isinstance(expr, Ref):
        return f"{expr.kind}_{expr.name}"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Select):
        return (
            f"({python_expr(expr.then)} if {python_expr(expr.condition)} "
            f"else {python_expr(expr.otherwise)})"
        )
    table = _PYTHON_UNARY if len(expr.args) == 1 else _PYTHON_OPERATORS
    return table[expr.operator].format(*map(python_expr, expr.args))


def c_expr(expr: Expr) -> str:
    """The C rendering of an expression (``C_x`` clocks, bare ``x`` values)."""
    if isinstance(expr, Ref):
        return f"C_{expr.name}" if expr.kind == "p" else expr.name
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "TRUE" if expr.value else "FALSE"
        return repr(expr.value)
    if isinstance(expr, Select):
        return f"({c_expr(expr.condition)} ? {c_expr(expr.then)} : {c_expr(expr.otherwise)})"
    table = _C_UNARY if len(expr.args) == 1 else _C_OPERATORS
    return table[expr.operator].format(*map(c_expr, expr.args))


@dataclass(frozen=True)
class StepOp:
    """One semantic operation of a step function, in schedule order.

    The listings, the bind function and the batch kernel are printed from
    this stream; the interpreter tier walks it directly.  Kinds:

    * ``"master_read"`` — unconditionally read the master-clock input ``target``;
    * ``"presence"`` — ``p_<target> = expr``;
    * ``"read"`` — if present, read input ``target`` from the environment;
    * ``"delay"`` — if present, ``v_<target>`` is the delay register ``register``;
    * ``"compute"`` — if present, ``v_<target> = expr``;
    * ``"write"`` — if present, emit ``v_<target>`` to the environment;
    * ``"update"`` — if ``source`` is present, store ``v_<source>`` into
      ``register``.
    """

    kind: str
    target: str
    expr: Optional[Expr] = None
    register: Optional[str] = None
    source: Optional[str] = None


@dataclass(frozen=True)
class StepProgram:
    """The scheduled semantic program of one process's step function."""

    process: NormalizedProcess
    ops: Tuple[StepOp, ...]
    initial_state: Dict[str, object]
    master_clock_inputs: Tuple[str, ...]

    @property
    def types(self) -> Dict[str, str]:
        return self.process.types

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self.process.inputs) + self.master_clock_inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self.process.outputs)


class _Generator:
    """Schedules the operations of the step function for one process."""

    def __init__(self, analysis: ProcessAnalysis, master_clocks: bool):
        self.analysis = analysis
        self.process = analysis.process
        self.master_clocks = master_clocks
        self.master_clock_inputs: List[str] = []
        self._root_signals: Set[str] = set()
        self._root_of_signal: Dict[str, str] = {}
        self._defined_by: Dict[str, object] = {}
        for equation in self.process.equations:
            target = equation.defined_signal()
            if target is not None:
                self._defined_by[target] = equation
        self._compute_roots()

    # -- roots and master clocks ---------------------------------------------------
    def _compute_roots(self) -> None:
        hierarchy = self.analysis.hierarchy
        roots = hierarchy.roots()
        if len(roots) > 1 and not self.master_clocks:
            raise CodeGenerationError(
                f"process {self.process.name!r} has {len(roots)} hierarchy roots; "
                "sequential code generation requires endochrony — use the controller "
                "scheme of Section 5.2 or enable master_clocks to reproduce the "
                "paper's Section 5.1 scheme"
            )
        for root in roots:
            signals = root.signal_clocks()
            if not signals:
                continue
            representative = signals[0]
            for name in signals:
                self._root_signals.add(name)
                self._root_of_signal[name] = representative
        if len(roots) > 1:
            self.master_clock_inputs = [
                f"C_{root.signal_clocks()[0]}" for root in roots if root.signal_clocks()
            ]

    # -- clock expression translation --------------------------------------------------
    def _clock_expr(self, expression: ClockExpressionSyntax) -> Expr:
        if isinstance(expression, ClockEmpty):
            return NEVER
        if isinstance(expression, ClockOf):
            return Ref("p", expression.name)
        if isinstance(expression, (ClockTrue, ClockFalse)):
            sample = (Ref("p", expression.name), Ref("v", expression.name))
            return Apply("and" if isinstance(expression, ClockTrue) else "and not", sample)
        if isinstance(expression, ClockBinary):
            operator = expression.operator if expression.operator in ("and", "or") else "and not"
            return Apply(
                operator, (self._clock_expr(expression.left), self._clock_expr(expression.right))
            )
        raise CodeGenerationError(f"unsupported clock expression {expression!r}")

    # -- presence candidates ----------------------------------------------------------
    def _presence_candidates(self, name: str) -> List[Expr]:
        candidates: List[Expr] = []
        # 1. explicit clock relations (in disjunctive form)
        for relation in self.analysis.disjunctive.relations.clock_relations:
            for own, other in ((relation.left, relation.right), (relation.right, relation.left)):
                if isinstance(own, ClockOf) and own.name == name:
                    if name in other.free_signals():
                        continue
                    candidates.append(self._clock_expr(other))
        # 2. the defining equation
        equation = self._defined_by.get(name)
        if isinstance(equation, FunctionEquation):
            signal_operands = [op for op in equation.operands if isinstance(op, str)]
            if signal_operands:
                candidates.append(Ref("p", signal_operands[0]))
        elif isinstance(equation, DelayEquation):
            candidates.append(Ref("p", equation.source))
        elif isinstance(equation, SamplingEquation):
            condition = equation.condition
            sample: Expr = Apply("and", (Ref("p", condition), Ref("v", condition)))
            if isinstance(equation.source, str):
                sample = Apply("and", (Ref("p", equation.source), sample))
            candidates.append(sample)
        elif isinstance(equation, MergeEquation):
            candidates.append(
                Apply("or", (Ref("p", equation.preferred), Ref("p", equation.alternative)))
            )
        # 3. root activation
        if name in self._root_signals:
            if self.master_clocks and len(self.master_clock_inputs) > 0:
                candidates.append(Ref("v", f"C_{self._root_of_signal[name]}"))
            else:
                candidates.append(ALWAYS)
        return candidates

    # -- value operations --------------------------------------------------------------
    @staticmethod
    def _operand(operand: Union[str, Const]) -> Expr:
        return operand if isinstance(operand, Const) else Ref("v", operand)

    def _value_op(self, name: str) -> Optional[StepOp]:
        equation = self._defined_by.get(name)
        if equation is None:
            return StepOp(kind="read", target=name) if name in self.process.inputs else None
        if isinstance(equation, DelayEquation):
            return StepOp(kind="delay", target=name, register=name)
        if isinstance(equation, FunctionEquation):
            table = {1: _PYTHON_UNARY, 2: _PYTHON_OPERATORS}.get(len(equation.operands), {})
            if equation.operator not in table:
                raise CodeGenerationError(
                    f"unsupported operator {equation.operator!r} in equation for {name!r}"
                )
            expr: Expr = Apply(equation.operator, tuple(map(self._operand, equation.operands)))
        elif isinstance(equation, SamplingEquation):
            expr = self._operand(equation.source)
        elif isinstance(equation, MergeEquation):
            expr = Select(
                Ref("p", equation.preferred),
                Ref("v", equation.preferred),
                Ref("v", equation.alternative),
            )
        else:
            raise CodeGenerationError(f"unsupported equation {equation!r}")
        return StepOp(kind="compute", target=name, expr=expr)

    # -- scheduling --------------------------------------------------------------------
    def schedule(self) -> List[StepOp]:
        """The presence and value operations in a dependency-respecting order."""
        signals = self.process.all_signals()
        values: Dict[Ref, StepOp] = {}
        # per value slot: (hard dependencies, soft dependencies)
        dependencies: Dict[Ref, Tuple[Set[Ref], Set[Ref]]] = {}
        candidates: Dict[Ref, List[Tuple[Expr, Set[Ref]]]] = {}

        for master in self.master_clock_inputs:
            slot = Ref("v", master)
            values[slot] = StepOp(kind="master_read", target=master)
            dependencies[slot] = (set(), set())

        for name in signals:
            candidates[Ref("p", name)] = [
                (expr, expr_refs(expr)) for expr in self._presence_candidates(name)
            ]
            op = self._value_op(name)
            if op is None:
                continue
            slot = Ref("v", name)
            values[slot] = op
            # Merge value dependencies are conditional: when the preferred
            # operand is absent its value is not read, so the hard dependency
            # is only on its presence.
            soft = {op.expr.then, op.expr.otherwise} if isinstance(op.expr, Select) else set()
            dependencies[slot] = ({Ref("p", name)} | expr_refs(op.expr)) - soft, soft

        # Greedy resolution: repeatedly emit any slot whose dependencies are met.
        resolved: Set[Ref] = set()
        order: List[StepOp] = []
        pending_presence = {Ref("p", name) for name in signals}
        pending_values = set(values)
        # Slots that will never be produced (e.g. values of signals that are
        # neither inputs nor defined — they can only be absent).
        pending_never = {Ref("v", name) for name in signals} - pending_values

        def try_resolve_presence() -> bool:
            for slot in sorted(pending_presence):
                for expr, needs in candidates[slot]:
                    if needs <= resolved:
                        order.append(StepOp(kind="presence", target=slot.name, expr=expr))
                        resolved.add(slot)
                        pending_presence.discard(slot)
                        return True
            return False

        def try_resolve_value() -> bool:
            for slot in sorted(pending_values):
                hard, soft = dependencies[slot]
                soft_ready = all(dependency in resolved or dependency in pending_never for dependency in soft)
                if hard <= resolved and soft_ready:
                    order.append(values[slot])
                    resolved.add(slot)
                    pending_values.discard(slot)
                    return True
            return False

        while pending_presence or pending_values:
            if try_resolve_presence():
                continue
            if try_resolve_value():
                continue
            unresolved = sorted(pending_presence | pending_values)
            raise CodeGenerationError(
                f"cannot order the computations of {self.process.name!r}; "
                f"unresolved slots: {[tuple(slot) for slot in unresolved[:8]]}"
            )
        return order

    def step_ops(self) -> Tuple[StepOp, ...]:
        """The full op stream: the schedule, the output writes, the register updates."""
        ops = self.schedule()
        for name in self.process.outputs:
            ops.append(StepOp(kind="write", target=name))
        for equation in self.process.equations:
            if isinstance(equation, DelayEquation):
                ops.append(
                    StepOp(
                        kind="update",
                        target=equation.target,
                        register=equation.target,
                        source=equation.source,
                    )
                )
        return tuple(ops)


def build_step_program(
    process: Union[NormalizedProcess, ProcessAnalysis],
    master_clocks: bool = False,
    check_compilable: bool = True,
) -> StepProgram:
    """The scheduled :class:`StepProgram` of a process.

    ``master_clocks=True`` reproduces the *current scheme* of Section 5.1 for
    multi-rooted processes: one boolean master-clock input ``C_<root>`` per
    hierarchy root is added to the interface and read at every step.
    """
    analysis = process if isinstance(process, ProcessAnalysis) else ProcessAnalysis(process)
    if check_compilable and not analysis.is_compilable():
        raise CodeGenerationError(
            f"process {analysis.process.name!r} is not compilable "
            f"(well_clocked={analysis.is_well_clocked()}, acyclic={analysis.is_acyclic()})"
        )
    generator = _Generator(analysis, master_clocks)
    return StepProgram(
        process=analysis.process,
        ops=generator.step_ops(),
        initial_state={
            equation.target: equation.initial
            for equation in analysis.process.equations
            if isinstance(equation, DelayEquation)
        },
        master_clock_inputs=tuple(generator.master_clock_inputs),
    )


def render_c_source(program: StepProgram) -> str:
    """The C-like listing of a step program, in the style of the paper's figures."""
    process = program.process.name
    lines: List[str] = [f"bool {process}_iterate() {{"]
    for op in program.ops:
        name = op.target
        if op.kind == "master_read":
            lines.append(f"  if (!r_{process}_{name}(&{name})) return FALSE;")
        elif op.kind == "presence":
            lines.append(f"  C_{name} = {c_expr(op.expr)};")
        elif op.kind == "read":
            lines.extend(
                [f"  if (C_{name}) {{", f"    if (!r_{process}_{name}(&{name})) return FALSE;", "  }"]
            )
        elif op.kind == "compute":
            lines.append(f"  if (C_{name}) {name} = {c_expr(op.expr)};")
        elif op.kind == "write":
            lines.append(f"  if (C_{name}) w_{process}_{name}({name});")
        elif op.kind == "update":
            lines.append(f"  if (C_{op.source}) {op.register} = {op.source};")
        # a delay reads its register in place: the listing needs no statement
    lines.extend(["  return TRUE;", "}"])
    return "\n".join(lines) + "\n"


def render_bind_source(program: StepProgram) -> str:
    """The Python source of the bind function for one step program."""
    name = program.process.name
    registers = sorted(program.initial_state)
    lines: List[str] = [f"def {name}_bind(io, state):"]
    body: List[str] = []
    for signal in program.inputs:
        body.append(f"_r_{signal} = _reader(io, {signal!r})")
    for signal in program.outputs:
        body.append(f"_w_{signal} = _writer(io, {signal!r})")
    for register in registers:
        body.append(f"s_{register} = state[{register!r}]")
    body.append("def _sync():")
    if registers:
        body.extend(f"    state[{register!r}] = s_{register}" for register in registers)
    else:
        body.append("    pass")
    body.append("def step():")
    if registers:
        body.append("    nonlocal " + ", ".join(f"s_{register}" for register in registers))
    # only the readers raise EndOfStream, and every read precedes every
    # register update, so one handler around the whole reaction suffices
    step_body: List[str] = []
    for op in program.ops:
        if op.kind == "master_read":
            step_body.append(f"v_{op.target} = _r_{op.target}()")
        elif op.kind == "presence":
            step_body.append(f"p_{op.target} = {python_expr(op.expr)}")
        elif op.kind == "read":
            step_body.extend([f"if p_{op.target}:", f"    v_{op.target} = _r_{op.target}()"])
        elif op.kind == "delay":
            step_body.extend([f"if p_{op.target}:", f"    v_{op.target} = s_{op.register}"])
        elif op.kind == "compute":
            step_body.extend([f"if p_{op.target}:", f"    v_{op.target} = {python_expr(op.expr)}"])
        elif op.kind == "write":
            step_body.extend([f"if p_{op.target}:", f"    _w_{op.target}(v_{op.target})"])
        elif op.kind == "update":
            step_body.extend([f"if p_{op.source}:", f"    s_{op.register} = v_{op.source}"])
        else:  # pragma: no cover - exhaustive over StepOp kinds
            raise CodeGenerationError(f"unknown step op kind {op.kind!r}")
    body.append("    try:")
    body.extend(f"        {line}" for line in step_body)
    body.extend(
        [
            "    except EndOfStream:",
            "        _sync()",
            "        return False",
            "    return True",
            "return step, _sync",
        ]
    )
    lines.extend(f"    {line}" for line in body)
    return "\n".join(lines) + "\n"


def _bind_reader(io: StreamIO, name: str) -> Callable[[], object]:
    """Resolve the fastest available read callable for one input signal."""
    factory = getattr(io, "reader", None)
    if factory is not None:
        return factory(name)

    def read_one() -> object:
        return io.read(name)

    return read_one


def _bind_writer(io: StreamIO, name: str) -> Callable[[object], None]:
    """Resolve the fastest available write callable for one output signal."""
    factory = getattr(io, "writer", None)
    if factory is not None:
        return factory(name)

    def write_one(value: object) -> None:
        io.write(name, value)

    return write_one


class CompiledProcess:
    """A sequentially compiled process: a step closure per IO, plus listings.

    ``python_source`` is the exec-compiled bind function; ``c_source`` is the
    paper-style listing.  Each IO object is bound once: the first
    ``step``/``run`` against an IO builds the closure and later calls merely
    invoke it.  Binding is keyed by IO identity — stepping a different IO
    flushes the registers of the previous binding and rebinds, so
    interleaved use stays correct (just slower).
    """

    def __init__(self, program: StepProgram):
        self.program = program
        self.process: NormalizedProcess = program.process
        self.initial_state: Dict[str, object] = dict(program.initial_state)
        self.master_clock_inputs: List[str] = list(program.master_clock_inputs)
        self.python_source = render_bind_source(program)
        namespace: Dict[str, object] = {
            "EndOfStream": EndOfStream,
            "_reader": _bind_reader,
            "_writer": _bind_writer,
        }
        function_name = f"{self.process.name}_bind"
        exec(compile(self.python_source, f"<generated {function_name}>", "exec"), namespace)
        self._bind = namespace[function_name]
        self._bound: Optional[tuple] = None  # (io, step, sync)
        self._state: Dict[str, object] = dict(self.initial_state)

    @property
    def c_source(self) -> str:
        return render_c_source(self.program)

    # -- state ------------------------------------------------------------------------
    @property
    def state(self) -> Dict[str, object]:
        """The delay registers, flushed from any live binding first."""
        bound = self._bound
        if bound is not None:
            bound[2]()
        return self._state

    @state.setter
    def state(self, value: Dict[str, object]) -> None:
        self._bound = None
        self._state = dict(value)

    def reset(self) -> None:
        """Reset the delay registers to their initial values."""
        self._bound = None
        self._state = dict(self.initial_state)

    # -- execution --------------------------------------------------------------------
    def _rebind(self, io: StreamIO) -> tuple:
        bound = self._bound
        if bound is not None:
            bound[2]()
        bound = (io, *self._bind(io, self._state))
        self._bound = bound
        return bound

    def step(self, io: StreamIO) -> bool:
        """Execute one reaction; returns False when an input stream ends."""
        bound = self._bound
        if bound is None or bound[0] is not io:
            bound = self._rebind(io)
        return bound[1]()

    def run(self, io: StreamIO, max_steps: int = 1_000_000) -> int:
        """Iterate until the step function returns False (paper's simulation main)."""
        bound = self._bound
        if bound is None or bound[0] is not io:
            bound = self._rebind(io)
        step = bound[1]
        steps = 0
        while steps < max_steps and step():
            steps += 1
        return steps

    # -- interface --------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self.process.inputs) + tuple(self.master_clock_inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self.process.outputs)


def compile_process(
    process: Union[NormalizedProcess, ProcessAnalysis],
    master_clocks: bool = False,
    check_compilable: bool = True,
) -> CompiledProcess:
    """Schedule a process and exec-compile its step function.

    See :func:`build_step_program` for ``master_clocks``.
    """
    return CompiledProcess(build_step_program(process, master_clocks, check_compilable))
