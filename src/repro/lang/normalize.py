"""Normalization of Signal processes into primitive equations.

The analyses of the paper (clock inference, hierarchy, scheduling graph) are
defined over the four primitive equation forms of Section 2:

* functional equations  ``x = y f z``
* delay equations       ``x = y pre v``
* sampling equations    ``x = y when z``
* merge equations       ``x = y default z``

plus explicit clock constraints (``x^ = [t]``, ``r^ = x^ ∨ y^``, ...) which
the worked examples use freely.  This module expands an arbitrary
:class:`~repro.lang.ast.ProcessDefinition` — including nested expressions,
the derived ``cell`` operator and instantiations of other named processes —
into a :class:`NormalizedProcess`: a flat list of primitive equations over
plain signal names, together with the process interface and inferred signal
types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.lang.ast import (
    BinaryOp,
    Cell,
    ClockBinary,
    ClockConstraint,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
    Composition,
    Const,
    Default,
    Definition,
    Expression,
    Instantiation,
    Pre,
    ProcessDefinition,
    Ref,
    Restriction,
    Statement,
    UnaryOp,
    When,
)

#: operators whose result is boolean
BOOLEAN_RESULT_OPERATORS = frozenset({"and", "or", "not", "xor", "=", "/=", "<", "<=", ">", ">="})
#: operators whose operands are boolean
BOOLEAN_OPERAND_OPERATORS = frozenset({"and", "or", "not", "xor"})
#: operators whose operands are numeric
NUMERIC_OPERAND_OPERATORS = frozenset({"+", "-", "*", "/", "<", "<=", ">", ">="})


# ---------------------------------------------------------------------------
# Primitive equations
# ---------------------------------------------------------------------------

Operand = Union[str, Const]


def operand_signals(operands: Iterable[Operand]) -> Tuple[str, ...]:
    """The signal names among a list of operands (constants are dropped)."""
    return tuple(operand for operand in operands if isinstance(operand, str))


#: per-object memos kept beside the dataclass fields: equality, hashing and
#: ``repr`` read the fields only, and pickles leave the memos out
_MEMOS = frozenset({"_signals", "_template", "_all_signals"})


def _without_memos(instance: object) -> Dict[str, object]:
    return {
        name: value for name, value in instance.__dict__.items() if name not in _MEMOS
    }


class PrimitiveEquation:
    """Base class of primitive equations.

    The equations are frozen, so what is derived from their fields alone is
    computed once per object: :meth:`signals` here, and the render template
    :mod:`repro.lang.printer` builds for the canonical form.
    """

    _signals = None  # Tuple[str, ...] once computed
    _template = None  # the printer's (plain, head, occurrences) once built

    def defined_signal(self) -> Optional[str]:
        """The signal defined by this equation, or None for pure constraints."""
        return None

    def read_signals(self) -> Tuple[str, ...]:
        """The signals read by this equation."""
        return ()

    def signals(self) -> Tuple[str, ...]:
        signals = self._signals
        if signals is None:
            defined = self.defined_signal()
            signals = ((defined,) if defined else ()) + self.read_signals()
            object.__setattr__(self, "_signals", signals)
        return signals

    def __getstate__(self) -> Dict[str, object]:
        return _without_memos(self)


@dataclass(frozen=True)
class FunctionEquation(PrimitiveEquation):
    """``x = f(a1, ..., an)`` — all signal operands are synchronous with ``x``."""

    target: str
    operator: str
    operands: Tuple[Operand, ...]

    def defined_signal(self) -> Optional[str]:
        return self.target

    def read_signals(self) -> Tuple[str, ...]:
        return operand_signals(self.operands)


@dataclass(frozen=True)
class DelayEquation(PrimitiveEquation):
    """``x = y pre v`` — ``x`` and ``y`` are synchronous; ``x`` holds the previous ``y``."""

    target: str
    source: str
    initial: object

    def defined_signal(self) -> Optional[str]:
        return self.target

    def read_signals(self) -> Tuple[str, ...]:
        return (self.source,)


@dataclass(frozen=True)
class SamplingEquation(PrimitiveEquation):
    """``x = y when z`` — present iff ``y`` (or a constant) and ``z`` present with ``z`` true."""

    target: str
    source: Operand
    condition: str

    def defined_signal(self) -> Optional[str]:
        return self.target

    def read_signals(self) -> Tuple[str, ...]:
        return operand_signals((self.source,)) + (self.condition,)


@dataclass(frozen=True)
class MergeEquation(PrimitiveEquation):
    """``x = y default z`` — ``y`` when present, otherwise ``z``."""

    target: str
    preferred: str
    alternative: str

    def defined_signal(self) -> Optional[str]:
        return self.target

    def read_signals(self) -> Tuple[str, ...]:
        return (self.preferred, self.alternative)


@dataclass(frozen=True)
class ClockEquation(PrimitiveEquation):
    """A synchronization constraint ``c1 = c2`` between two clock expressions."""

    left: ClockExpressionSyntax
    right: ClockExpressionSyntax

    def read_signals(self) -> Tuple[str, ...]:
        return tuple(sorted(self.left.free_signals() | self.right.free_signals()))


# ---------------------------------------------------------------------------
# Normalized process
# ---------------------------------------------------------------------------

#: the fields :meth:`NormalizedProcess.all_signals` reads
_SIGNAL_FIELDS = frozenset({"inputs", "outputs", "locals", "equations"})


@dataclass
class NormalizedProcess:
    """A Signal process expanded into primitive equations.

    ``types`` maps each signal to ``"bool"``, ``"num"`` or ``"any"`` as
    inferred by :func:`infer_types`; the clock calculus only introduces
    ``[x]`` / ``[¬x]`` literals for boolean signals.
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    locals: Tuple[str, ...]
    equations: Tuple[PrimitiveEquation, ...]
    types: Dict[str, str] = field(default_factory=dict)

    _all_signals = None  # not a field: Tuple[str, ...] once computed

    def __setattr__(self, name: str, value: object) -> None:
        if name in _SIGNAL_FIELDS:
            self.__dict__.pop("_all_signals", None)
        object.__setattr__(self, name, value)

    def __getstate__(self) -> Dict[str, object]:
        return _without_memos(self)

    def all_signals(self) -> Tuple[str, ...]:
        """Every signal of the process, sorted; computed once until one of
        the fields it reads is reassigned."""
        signals = self._all_signals
        if signals is None:
            names: Set[str] = set(self.inputs) | set(self.outputs) | set(self.locals)
            for equation in self.equations:
                names.update(equation.signals())
            signals = tuple(sorted(names))
            object.__setattr__(self, "_all_signals", signals)
        return signals

    def interface_signals(self) -> Tuple[str, ...]:
        return tuple(self.inputs) + tuple(self.outputs)

    def defined_signals(self) -> FrozenSet[str]:
        return frozenset(
            equation.defined_signal()
            for equation in self.equations
            if equation.defined_signal() is not None
        )

    def boolean_signals(self) -> Tuple[str, ...]:
        return tuple(sorted(name for name, kind in self.types.items() if kind == "bool"))

    def state_signals(self) -> Tuple[str, ...]:
        """Targets of delay equations: the signals that carry state."""
        return tuple(
            sorted(
                equation.target
                for equation in self.equations
                if isinstance(equation, DelayEquation)
            )
        )

    def compose(self, other: "NormalizedProcess", name: Optional[str] = None) -> "NormalizedProcess":
        """Synchronous composition of two normalized processes.

        Shared signals are identified by name, as in the paper's ``P | Q``.
        A signal is an output of the composition if it is defined in either
        component; it is an input if it is read but never defined.
        """
        equations = tuple(self.equations) + tuple(other.equations)
        defined = {
            eq.defined_signal() for eq in equations if eq.defined_signal() is not None
        }
        read: Set[str] = set()
        for eq in equations:
            read.update(eq.read_signals())
        locals_ = (set(self.locals) | set(other.locals)) - set(self.interface_signals()) - set(
            other.interface_signals()
        )
        visible = (read | defined) - locals_
        outputs = tuple(sorted((visible & defined)))
        inputs = tuple(sorted(visible - defined))
        composed = NormalizedProcess(
            name=name or f"{self.name}|{other.name}",
            inputs=inputs,
            outputs=outputs,
            locals=tuple(sorted(locals_)),
            equations=equations,
        )
        composed.types = infer_types(composed)
        return composed

    def hide(self, names: Iterable[str], name: Optional[str] = None) -> "NormalizedProcess":
        """Restriction: make the given signals local."""
        hidden = set(names)
        result = NormalizedProcess(
            name=name or self.name,
            inputs=tuple(n for n in self.inputs if n not in hidden),
            outputs=tuple(n for n in self.outputs if n not in hidden),
            locals=tuple(sorted(set(self.locals) | hidden)),
            equations=self.equations,
        )
        result.types = infer_types(result)
        return result


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------

def infer_types(process: NormalizedProcess) -> Dict[str, str]:
    """Infer a coarse type (``bool`` / ``num`` / ``any``) for every signal.

    The inference is a fixpoint propagation: booleans flow through delays,
    merges and samplings; comparison operators produce booleans; arithmetic
    operators force numeric operands.  Signals used as ``when`` conditions or
    inside ``[x]`` / ``[¬x]`` clock literals are boolean.
    """
    types: Dict[str, str] = {name: "any" for name in process.all_signals()}

    def set_type(name: Optional[str], kind: str) -> bool:
        if name is None or not isinstance(name, str):
            return False
        current = types.get(name, "any")
        if kind == "any" or current == kind:
            return False
        if current != "any":
            # Conflicting evidence (e.g. a signal used both as a boolean and as a
            # number after composing two processes that reuse a name): keep the
            # first inferred type rather than oscillating forever.
            return False
        types[name] = kind
        return True

    def const_type(value: object) -> str:
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, float)):
            return "num"
        return "any"

    def clock_booleans(expression: ClockExpressionSyntax) -> Set[str]:
        if isinstance(expression, (ClockTrue, ClockFalse)):
            return {expression.name}
        if isinstance(expression, ClockBinary):
            return clock_booleans(expression.left) | clock_booleans(expression.right)
        return set()

    changed = True
    while changed:
        changed = False
        for equation in process.equations:
            if isinstance(equation, FunctionEquation):
                operator = equation.operator
                if operator in BOOLEAN_RESULT_OPERATORS:
                    changed |= set_type(equation.target, "bool")
                if operator in BOOLEAN_OPERAND_OPERATORS:
                    for operand in equation.operands:
                        if isinstance(operand, str):
                            changed |= set_type(operand, "bool")
                if operator in NUMERIC_OPERAND_OPERATORS:
                    for operand in equation.operands:
                        if isinstance(operand, str):
                            changed |= set_type(operand, "num")
                if operator in {"+", "-", "*", "/"}:
                    changed |= set_type(equation.target, "num")
                if operator == "id":
                    operand = equation.operands[0]
                    if isinstance(operand, str):
                        if types[operand] != "any":
                            changed |= set_type(equation.target, types[operand])
                        if types[equation.target] != "any":
                            changed |= set_type(operand, types[equation.target])
                    elif isinstance(operand, Const):
                        changed |= set_type(equation.target, const_type(operand.value))
            elif isinstance(equation, DelayEquation):
                changed |= set_type(equation.target, const_type(equation.initial))
                if types[equation.source] != "any":
                    changed |= set_type(equation.target, types[equation.source])
                if types[equation.target] != "any":
                    changed |= set_type(equation.source, types[equation.target])
            elif isinstance(equation, SamplingEquation):
                changed |= set_type(equation.condition, "bool")
                source = equation.source
                if isinstance(source, str):
                    if types[source] != "any":
                        changed |= set_type(equation.target, types[source])
                    if types[equation.target] != "any":
                        changed |= set_type(source, types[equation.target])
                elif isinstance(source, Const):
                    changed |= set_type(equation.target, const_type(source.value))
            elif isinstance(equation, MergeEquation):
                for source in (equation.preferred, equation.alternative):
                    if types[source] != "any":
                        changed |= set_type(equation.target, types[source])
                if types[equation.target] != "any":
                    changed |= set_type(equation.preferred, types[equation.target])
                    changed |= set_type(equation.alternative, types[equation.target])
            elif isinstance(equation, ClockEquation):
                for name in clock_booleans(equation.left) | clock_booleans(equation.right):
                    changed |= set_type(name, "bool")
    return types


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------

class _Normalizer:
    """Stateful expansion of one process definition into primitive equations."""

    def __init__(self, registry: Mapping[str, ProcessDefinition]):
        self.registry = dict(registry)
        self.equations: List[PrimitiveEquation] = []
        self.extra_locals: List[str] = []
        self._fresh_counter = 0
        self._used_names: Set[str] = set()

    # -- fresh names -----------------------------------------------------------
    def fresh(self, hint: str) -> str:
        """A fresh local signal name based on ``hint``."""
        while True:
            self._fresh_counter += 1
            candidate = f"_{hint}_{self._fresh_counter}"
            if candidate not in self._used_names:
                self._used_names.add(candidate)
                self.extra_locals.append(candidate)
                return candidate

    def reserve(self, names: Iterable[str]) -> None:
        self._used_names.update(names)

    # -- expressions ------------------------------------------------------------
    def operand(self, expression: Expression, hint: str) -> Operand:
        """Normalize an expression into an operand (a name or a constant)."""
        if isinstance(expression, Ref):
            return expression.name
        if isinstance(expression, Const):
            return expression
        name = self.fresh(hint)
        self.define(name, expression)
        return name

    def named_operand(self, expression: Expression, hint: str) -> str:
        """Normalize an expression into a signal name (constants get an equation)."""
        operand = self.operand(expression, hint)
        if isinstance(operand, Const):
            name = self.fresh(hint)
            self.equations.append(FunctionEquation(name, "id", (operand,)))
            return name
        return operand

    def merge_operand(self, expression: Expression, target: str, hint: str) -> str:
        """Normalize a ``default`` operand; a constant adopts the clock of the result.

        In Signal, a constant literal in a merge (``x default 1``) is present
        whenever the surrounding expression needs it, so the fresh signal
        carrying it is synchronized with the merge's result.
        """
        operand = self.operand(expression, hint)
        if isinstance(operand, Const):
            name = self.fresh(hint)
            self.equations.append(FunctionEquation(name, "id", (operand,)))
            self.equations.append(ClockEquation(ClockOf(name), ClockOf(target)))
            return name
        return operand

    def define(self, target: str, expression: Expression) -> None:
        """Emit primitive equations defining ``target`` by ``expression``."""
        if isinstance(expression, Pre):
            source = self.named_operand(expression.operand, f"{target}_pre")
            self.equations.append(DelayEquation(target, source, expression.initial))
        elif isinstance(expression, When):
            source = self.operand(expression.operand, f"{target}_val")
            condition = self.named_operand(expression.condition, f"{target}_cond")
            self.equations.append(SamplingEquation(target, source, condition))
        elif isinstance(expression, Default):
            preferred = self.merge_operand(expression.preferred, target, f"{target}_pref")
            alternative = self.merge_operand(expression.alternative, target, f"{target}_alt")
            self.equations.append(MergeEquation(target, preferred, alternative))
        elif isinstance(expression, Cell):
            # x := y cell c init v  expands to
            #   x := y default m   |  m := x pre v  |  x^ = y^ ∨ [c]
            source = self.named_operand(expression.operand, f"{target}_cellsrc")
            condition = self.named_operand(expression.condition, f"{target}_cellcond")
            memory = self.fresh(f"{target}_mem")
            self.equations.append(DelayEquation(memory, target, expression.initial))
            self.equations.append(MergeEquation(target, source, memory))
            self.equations.append(
                ClockEquation(
                    ClockOf(target),
                    ClockBinary("or", ClockOf(source), ClockTrue(condition)),
                )
            )
        elif isinstance(expression, UnaryOp):
            operand = self.operand(expression.operand, f"{target}_arg")
            self.equations.append(FunctionEquation(target, expression.operator, (operand,)))
        elif isinstance(expression, BinaryOp):
            left = self.operand(expression.left, f"{target}_lhs")
            right = self.operand(expression.right, f"{target}_rhs")
            self.equations.append(FunctionEquation(target, expression.operator, (left, right)))
        elif isinstance(expression, Ref):
            self.equations.append(FunctionEquation(target, "id", (expression.name,)))
        elif isinstance(expression, Const):
            self.equations.append(FunctionEquation(target, "id", (expression,)))
        else:
            raise TypeError(f"unsupported expression node: {expression!r}")

    # -- statements ----------------------------------------------------------
    def statement(self, statement: Statement) -> None:
        if isinstance(statement, Definition):
            self.define(statement.target, statement.expression)
        elif isinstance(statement, ClockConstraint):
            reference = statement.clocks[0]
            for other in statement.clocks[1:]:
                self.equations.append(ClockEquation(reference, other))
        elif isinstance(statement, Composition):
            for child in statement.statements:
                self.statement(child)
        elif isinstance(statement, Restriction):
            self.extra_locals.extend(
                name for name in statement.hidden if name not in self.extra_locals
            )
            self.statement(statement.body)
        elif isinstance(statement, Instantiation):
            self.instantiate(statement)
        else:
            raise TypeError(f"unsupported statement node: {statement!r}")

    def instantiate(self, statement: Instantiation) -> None:
        """Inline an instantiation of a named process with renamed locals."""
        definition = self.registry.get(statement.process)
        if definition is None:
            raise KeyError(
                f"instantiation of unknown process {statement.process!r}; "
                f"known processes: {sorted(self.registry)}"
            )
        if len(statement.outputs) != len(definition.outputs):
            raise ValueError(
                f"process {definition.name!r} has {len(definition.outputs)} outputs, "
                f"instantiation binds {len(statement.outputs)}"
            )
        if len(statement.arguments) != len(definition.inputs):
            raise ValueError(
                f"process {definition.name!r} has {len(definition.inputs)} inputs, "
                f"instantiation passes {len(statement.arguments)}"
            )
        # Normalize the callee separately, then rename.
        callee = normalize(definition, self.registry)
        renaming: Dict[str, str] = {}
        for formal, actual in zip(definition.inputs, statement.arguments):
            renaming[formal] = self.named_operand(actual, f"{statement.process}_{formal}")
        for formal, actual in zip(definition.outputs, statement.outputs):
            renaming[formal] = actual
        instance = self.fresh(f"{statement.process}_inst")
        # ``instance`` is only used as a renaming prefix; it is not a signal.
        self.extra_locals.remove(instance)
        self._used_names.discard(instance)
        for name in callee.all_signals():
            if name not in renaming:
                renamed = f"{instance[1:]}_{name}"
                renaming[name] = renamed
                if renamed not in self.extra_locals:
                    self.extra_locals.append(renamed)
                self._used_names.add(renamed)
        for equation in callee.equations:
            self.equations.append(rename_equation(equation, renaming))


def rename_operand(operand: Operand, renaming: Mapping[str, str]) -> Operand:
    if isinstance(operand, str):
        return renaming.get(operand, operand)
    return operand


def rename_clock(expression: ClockExpressionSyntax, renaming: Mapping[str, str]) -> ClockExpressionSyntax:
    if isinstance(expression, ClockOf):
        return ClockOf(renaming.get(expression.name, expression.name))
    if isinstance(expression, ClockTrue):
        return ClockTrue(renaming.get(expression.name, expression.name))
    if isinstance(expression, ClockFalse):
        return ClockFalse(renaming.get(expression.name, expression.name))
    if isinstance(expression, ClockEmpty):
        return expression
    if isinstance(expression, ClockBinary):
        return ClockBinary(
            expression.operator,
            rename_clock(expression.left, renaming),
            rename_clock(expression.right, renaming),
        )
    raise TypeError(f"unsupported clock expression: {expression!r}")


def rename_equation(equation: PrimitiveEquation, renaming: Mapping[str, str]) -> PrimitiveEquation:
    """Apply a signal renaming to a primitive equation."""
    if isinstance(equation, FunctionEquation):
        return FunctionEquation(
            renaming.get(equation.target, equation.target),
            equation.operator,
            tuple(rename_operand(operand, renaming) for operand in equation.operands),
        )
    if isinstance(equation, DelayEquation):
        return DelayEquation(
            renaming.get(equation.target, equation.target),
            renaming.get(equation.source, equation.source),
            equation.initial,
        )
    if isinstance(equation, SamplingEquation):
        return SamplingEquation(
            renaming.get(equation.target, equation.target),
            rename_operand(equation.source, renaming),
            renaming.get(equation.condition, equation.condition),
        )
    if isinstance(equation, MergeEquation):
        return MergeEquation(
            renaming.get(equation.target, equation.target),
            renaming.get(equation.preferred, equation.preferred),
            renaming.get(equation.alternative, equation.alternative),
        )
    if isinstance(equation, ClockEquation):
        return ClockEquation(
            rename_clock(equation.left, renaming), rename_clock(equation.right, renaming)
        )
    raise TypeError(f"unsupported primitive equation: {equation!r}")


def normalize(
    process: ProcessDefinition,
    registry: Optional[Mapping[str, ProcessDefinition]] = None,
) -> NormalizedProcess:
    """Expand a process definition into a :class:`NormalizedProcess`.

    ``registry`` provides the definitions of processes referenced by
    instantiation statements; the paper's examples compose `filter`, `buffer`,
    `writer`, `reader`, ... this way.
    """
    normalizer = _Normalizer(registry or {})
    normalizer.reserve(process.inputs)
    normalizer.reserve(process.outputs)
    normalizer.reserve(process.locals)
    normalizer.statement(process.body)

    declared = set(process.inputs) | set(process.outputs) | set(process.locals)
    mentioned: Set[str] = set()
    for equation in normalizer.equations:
        mentioned.update(equation.signals())
    implicit_locals = mentioned - declared - set(normalizer.extra_locals)
    locals_ = tuple(
        dict.fromkeys(list(process.locals) + normalizer.extra_locals + sorted(implicit_locals))
    )
    result = NormalizedProcess(
        name=process.name,
        inputs=tuple(process.inputs),
        outputs=tuple(process.outputs),
        locals=locals_,
        equations=tuple(normalizer.equations),
    )
    result.types = infer_types(result)
    return result
