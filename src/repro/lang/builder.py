"""Programmatic construction of Signal processes.

The :class:`ProcessBuilder` offers a small fluent API used throughout the
library (:mod:`repro.library`) and the examples to assemble
:class:`~repro.lang.ast.ProcessDefinition` values without going through the
textual parser.  Signal expressions can be written with plain AST
constructors or with the operator-overloading wrapper returned by
:func:`signal`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.lang.ast import (
    BinaryOp,
    Cell,
    ClockConstraint,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
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
    compose,
)

ExpressionLike = Union["SignalExpr", Expression, str, bool, int, float]


def _to_expression(value: ExpressionLike) -> Expression:
    """Coerce Python values, names and wrappers into AST expressions."""
    if isinstance(value, SignalExpr):
        return value.node
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        return Ref(value)
    if isinstance(value, (bool, int, float)):
        return Const(value)
    raise TypeError(f"cannot interpret {value!r} as a signal expression")


class SignalExpr:
    """Operator-overloading wrapper around AST expressions.

    ``signal("y") != signal("z")`` builds ``BinaryOp("/=", Ref("y"), Ref("z"))``,
    ``signal("y").pre(True)`` builds a delay, and so on.  The wrapper is a thin
    convenience layer: ``.node`` always exposes the underlying AST.
    """

    __slots__ = ("node",)

    def __init__(self, node: ExpressionLike):
        self.node = _to_expression(node)

    # arithmetic -----------------------------------------------------------
    def __add__(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("+", self.node, _to_expression(other)))

    def __radd__(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("+", _to_expression(other), self.node))

    def __sub__(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("-", self.node, _to_expression(other)))

    def __rsub__(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("-", _to_expression(other), self.node))

    def __mul__(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("*", self.node, _to_expression(other)))

    def __rmul__(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("*", _to_expression(other), self.node))

    def __neg__(self) -> "SignalExpr":
        return SignalExpr(UnaryOp("-", self.node))

    # comparisons (note: == and != build signal expressions, not Python bools)
    def eq(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("=", self.node, _to_expression(other)))

    def ne(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("/=", self.node, _to_expression(other)))

    def lt(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("<", self.node, _to_expression(other)))

    def le(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("<=", self.node, _to_expression(other)))

    def gt(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp(">", self.node, _to_expression(other)))

    def ge(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp(">=", self.node, _to_expression(other)))

    # boolean ----------------------------------------------------------------
    def and_(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("and", self.node, _to_expression(other)))

    def or_(self, other: ExpressionLike) -> "SignalExpr":
        return SignalExpr(BinaryOp("or", self.node, _to_expression(other)))

    def not_(self) -> "SignalExpr":
        return SignalExpr(UnaryOp("not", self.node))

    # Signal operators --------------------------------------------------------
    def pre(self, initial: object) -> "SignalExpr":
        return SignalExpr(Pre(self.node, initial))

    def when(self, condition: ExpressionLike) -> "SignalExpr":
        return SignalExpr(When(self.node, _to_expression(condition)))

    def default(self, alternative: ExpressionLike) -> "SignalExpr":
        return SignalExpr(Default(self.node, _to_expression(alternative)))

    def cell(self, condition: ExpressionLike, initial: object) -> "SignalExpr":
        return SignalExpr(Cell(self.node, _to_expression(condition), initial))

    def __repr__(self) -> str:
        return f"SignalExpr({self.node!r})"


def signal(name: str) -> SignalExpr:
    """A reference to the signal called ``name``, wrapped for operator use."""
    return SignalExpr(Ref(name))


def const(value: object) -> SignalExpr:
    """A constant signal expression."""
    return SignalExpr(Const(value))


# -- clock expression helpers ---------------------------------------------

def tick(name: str) -> ClockOf:
    """The clock ``x^`` of signal ``name``."""
    return ClockOf(name)


def when_true(name: str) -> ClockTrue:
    """The clock ``[x]`` (signal present and true)."""
    return ClockTrue(name)


def when_false(name: str) -> ClockFalse:
    """The clock ``[¬x]`` (signal present and false)."""
    return ClockFalse(name)


class ProcessBuilder:
    """Accumulates equations and produces a :class:`ProcessDefinition`.

    Example building the paper's ``filter`` process::

        builder = ProcessBuilder("filter", inputs=["y"], outputs=["x"])
        builder.local("z")
        builder.define("x", const(True).when(signal("y").ne(signal("z"))))
        builder.define("z", signal("y").pre(True))
        process = builder.build()
    """

    def __init__(self, name: str, inputs: Sequence[str] = (), outputs: Sequence[str] = ()):
        self.name = name
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self._locals: List[str] = []
        self._statements: List[Statement] = []

    # -- declarations ---------------------------------------------------------
    def local(self, *names: str) -> "ProcessBuilder":
        """Declare local (hidden) signals."""
        for name in names:
            if name not in self._locals:
                self._locals.append(name)
        return self

    # -- statements -------------------------------------------------------------
    def define(self, target: str, expression: ExpressionLike) -> "ProcessBuilder":
        """Add an equation ``target := expression``."""
        self._statements.append(Definition(target, _to_expression(expression)))
        return self

    def constrain(self, *clocks: ClockExpressionSyntax) -> "ProcessBuilder":
        """Add a synchronization constraint between two or more clocks."""
        self._statements.append(ClockConstraint(tuple(clocks)))
        return self

    def synchronize(self, *names: str) -> "ProcessBuilder":
        """Constrain the named signals to be synchronous (``x^ = y^ = ...``)."""
        self._statements.append(ClockConstraint(tuple(ClockOf(name) for name in names)))
        return self

    def instantiate(
        self,
        process: Union[str, ProcessDefinition],
        arguments: Sequence[ExpressionLike],
        outputs: Sequence[str],
    ) -> "ProcessBuilder":
        """Add an instantiation ``(outputs) := process(arguments)``."""
        process_name = process.name if isinstance(process, ProcessDefinition) else process
        self._statements.append(
            Instantiation(
                tuple(outputs),
                process_name,
                tuple(_to_expression(argument) for argument in arguments),
            )
        )
        return self

    def add(self, statement: Statement) -> "ProcessBuilder":
        """Add an arbitrary pre-built statement."""
        self._statements.append(statement)
        return self

    # -- result ---------------------------------------------------------------
    def build(self) -> ProcessDefinition:
        """Produce the process definition accumulated so far."""
        if not self._statements:
            raise ValueError(f"process {self.name!r} has no equations")
        body: Statement = compose(*self._statements)
        if self._locals:
            body = Restriction(body, tuple(self._locals))
        return ProcessDefinition(
            name=self.name,
            inputs=self.inputs,
            outputs=self.outputs,
            body=body,
            locals=tuple(self._locals),
        )
