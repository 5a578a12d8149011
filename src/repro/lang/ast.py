"""Abstract syntax of the Signal subset used in the paper.

The grammar follows Section 2 of the paper::

    P, Q ::= x = y f z | P | Q | P / x          (processes)

extended with the constructs that appear in the worked examples: clock
constraint equations (``x^ = [t]``, ``r^ = x^ ∨ y^``), sub-process
instantiation (``x = filter(y)``), the derived ``cell`` operator used by the
synthesized scheduler, and named process definitions with input/output
interfaces.

Expression nodes are immutable dataclasses.  Every node exposes
``free_signals()`` so later passes (normalization, validation, clock
inference) can be written uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple


# ---------------------------------------------------------------------------
# Signal expressions
# ---------------------------------------------------------------------------

class Expression:
    """Base class of signal expressions."""

    def free_signals(self) -> FrozenSet[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expression):
    """A constant signal; it adopts the clock of its context."""

    value: object

    def free_signals(self) -> FrozenSet[str]:
        return frozenset()


@dataclass(frozen=True)
class Ref(Expression):
    """A reference to a named signal."""

    name: str

    def free_signals(self) -> FrozenSet[str]:
        return frozenset({self.name})


@dataclass(frozen=True)
class UnaryOp(Expression):
    """A unary functional operator (``not``, ``-``)."""

    operator: str
    operand: Expression

    def free_signals(self) -> FrozenSet[str]:
        return self.operand.free_signals()


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary functional operator (arithmetic, boolean, comparison)."""

    operator: str
    left: Expression
    right: Expression

    def free_signals(self) -> FrozenSet[str]:
        return self.left.free_signals() | self.right.free_signals()


@dataclass(frozen=True)
class Pre(Expression):
    """The delay operator ``y pre v``: previous value of ``y``, initially ``v``."""

    operand: Expression
    initial: object

    def free_signals(self) -> FrozenSet[str]:
        return self.operand.free_signals()


@dataclass(frozen=True)
class When(Expression):
    """The sampling operator ``y when z``: ``y`` when ``z`` is present and true."""

    operand: Expression
    condition: Expression

    def free_signals(self) -> FrozenSet[str]:
        return self.operand.free_signals() | self.condition.free_signals()


@dataclass(frozen=True)
class Default(Expression):
    """The deterministic merge ``y default z``: ``y`` when present, else ``z``."""

    preferred: Expression
    alternative: Expression

    def free_signals(self) -> FrozenSet[str]:
        return self.preferred.free_signals() | self.alternative.free_signals()


@dataclass(frozen=True)
class Cell(Expression):
    """The derived operator ``y cell c init v``.

    It memorizes the last value of ``y`` and is present whenever ``y`` is
    present or the boolean ``c`` is present and true.  It is expanded during
    normalization into a ``default`` over a delayed memory signal.
    """

    operand: Expression
    condition: Expression
    initial: object

    def free_signals(self) -> FrozenSet[str]:
        return self.operand.free_signals() | self.condition.free_signals()


# ---------------------------------------------------------------------------
# Clock expressions (syntax level)
# ---------------------------------------------------------------------------

class ClockExpressionSyntax:
    """Base class of syntactic clock expressions used in clock constraints."""

    def free_signals(self) -> FrozenSet[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class ClockOf(ClockExpressionSyntax):
    """``x^``: the clock (presence instants) of signal ``x``."""

    name: str

    def free_signals(self) -> FrozenSet[str]:
        return frozenset({self.name})


@dataclass(frozen=True)
class ClockTrue(ClockExpressionSyntax):
    """``[x]``: the instants at which boolean signal ``x`` is present and true."""

    name: str

    def free_signals(self) -> FrozenSet[str]:
        return frozenset({self.name})


@dataclass(frozen=True)
class ClockFalse(ClockExpressionSyntax):
    """``[¬x]``: the instants at which boolean signal ``x`` is present and false."""

    name: str

    def free_signals(self) -> FrozenSet[str]:
        return frozenset({self.name})


@dataclass(frozen=True)
class ClockEmpty(ClockExpressionSyntax):
    """``0``: the empty clock (no instant)."""

    def free_signals(self) -> FrozenSet[str]:
        return frozenset()


@dataclass(frozen=True)
class ClockBinary(ClockExpressionSyntax):
    """Conjunction ``^*``, disjunction ``^+`` or difference ``^-`` of clocks."""

    operator: str  # one of "and", "or", "diff"
    left: ClockExpressionSyntax
    right: ClockExpressionSyntax

    def free_signals(self) -> FrozenSet[str]:
        return self.left.free_signals() | self.right.free_signals()


# ---------------------------------------------------------------------------
# Statements (equations) and processes
# ---------------------------------------------------------------------------

class Statement:
    """Base class of process statements."""

    def defined_signals(self) -> FrozenSet[str]:
        raise NotImplementedError

    def free_signals(self) -> FrozenSet[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Definition(Statement):
    """An equation ``x := e`` defining signal ``x`` by expression ``e``."""

    target: str
    expression: Expression

    def defined_signals(self) -> FrozenSet[str]:
        return frozenset({self.target})

    def free_signals(self) -> FrozenSet[str]:
        return frozenset({self.target}) | self.expression.free_signals()


@dataclass(frozen=True)
class ClockConstraint(Statement):
    """A synchronization constraint ``c1 = c2 (= c3 ...)`` between clocks."""

    clocks: Tuple[ClockExpressionSyntax, ...]

    def __post_init__(self) -> None:
        if len(self.clocks) < 2:
            raise ValueError("a clock constraint relates at least two clock expressions")

    def defined_signals(self) -> FrozenSet[str]:
        return frozenset()

    def free_signals(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for clock in self.clocks:
            names |= clock.free_signals()
        return names


@dataclass(frozen=True)
class Instantiation(Statement):
    """An instantiation ``(x1, ..., xn) := p(y1, ..., ym)`` of a named process."""

    outputs: Tuple[str, ...]
    process: str
    arguments: Tuple[Expression, ...]

    def defined_signals(self) -> FrozenSet[str]:
        return frozenset(self.outputs)

    def free_signals(self) -> FrozenSet[str]:
        names = frozenset(self.outputs)
        for argument in self.arguments:
            names |= argument.free_signals()
        return names


@dataclass(frozen=True)
class Composition(Statement):
    """Synchronous composition ``P | Q`` of statements."""

    statements: Tuple[Statement, ...]

    def defined_signals(self) -> FrozenSet[str]:
        defined: FrozenSet[str] = frozenset()
        for statement in self.statements:
            defined |= statement.defined_signals()
        return defined

    def free_signals(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for statement in self.statements:
            names |= statement.free_signals()
        return names


@dataclass(frozen=True)
class Restriction(Statement):
    """Restriction ``P / x``: the signals ``hidden`` are local to ``body``."""

    body: Statement
    hidden: Tuple[str, ...]

    def defined_signals(self) -> FrozenSet[str]:
        return self.body.defined_signals() - frozenset(self.hidden)

    def free_signals(self) -> FrozenSet[str]:
        return self.body.free_signals() - frozenset(self.hidden)


@dataclass(frozen=True)
class ProcessDefinition:
    """A named process with an explicit input/output interface.

    ``body`` is a statement; signals that are neither inputs nor outputs but
    occur in the body are implicitly local (the front-end wraps the body in a
    :class:`Restriction` over them when normalizing).
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    body: Statement
    locals: Tuple[str, ...] = ()

    def interface(self) -> Tuple[str, ...]:
        return tuple(self.inputs) + tuple(self.outputs)

    def free_signals(self) -> FrozenSet[str]:
        return self.body.free_signals() - frozenset(self.locals)


def compose(*statements: Statement) -> Statement:
    """Flattened synchronous composition of statements."""
    flat: List[Statement] = []
    for statement in statements:
        if isinstance(statement, Composition):
            flat.extend(statement.statements)
        else:
            flat.append(statement)
    if len(flat) == 1:
        return flat[0]
    return Composition(tuple(flat))
