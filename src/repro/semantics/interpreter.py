"""Operational interpreter for normalized Signal processes.

One call to :meth:`SignalInterpreter.step` computes one *reaction*: given the
presence and values of (some of) the input signals, the interpreter solves
the presence and value of every signal of the process by propagating the
constraints of the primitive equations to a fixpoint, then commits the state
of the delay equations.

The propagation uses a three-valued presence domain (present / absent /
unknown).  When propagation reaches a fixpoint and some presences remain
unknown, the interpreter (optionally) completes the reaction by absence —
the behaviour expected of endochronous specifications, whose reactions are
fully determined by the signals already known to be present — and then
re-checks that every equation is satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

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
    ClockEquation,
    DelayEquation,
    FunctionEquation,
    MergeEquation,
    NormalizedProcess,
    SamplingEquation,
)
from repro.mocc.reactions import Reaction


class _Absent:
    """Singleton marker for an explicitly absent input signal."""

    _instance: Optional["_Absent"] = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"


#: pass ``ABSENT`` as an input value to state that the signal has no event.
ABSENT = _Absent()


class _Tick:
    """Singleton marker forcing a signal to be present without fixing its value."""

    _instance: Optional["_Tick"] = None

    def __new__(cls) -> "_Tick":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TICK"


#: pass ``TICK`` in ``assume`` to force a signal present, letting its value be computed.
TICK = _Tick()

#: three-valued presence domain
PRESENT = "present"
MISSING = "absent"
UNKNOWN = "unknown"


class ClockError(Exception):
    """Raised when an instant's constraints are contradictory (blocked reaction)."""


class UnderdeterminedError(Exception):
    """Raised when a reaction cannot be fully determined from the given inputs."""


@dataclass
class InstantResult:
    """The outcome of one reaction: presence, values, and the reaction object."""

    presence: Dict[str, bool]
    values: Dict[str, object]
    reaction: Reaction

    def is_silent(self) -> bool:
        return self.reaction.is_silent()

    def present(self, name: str) -> bool:
        return self.presence.get(name, False)

    def value(self, name: str) -> object:
        return self.values[name]


_OPERATORS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else a // b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "xor": lambda a, b: bool(a) != bool(b),
    "=": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_UNARY_OPERATORS = {
    "not": lambda a: not a,
    "-": lambda a: -a,
    "id": lambda a: a,
}


def apply_operator(operator: str, values: Tuple[object, ...]) -> object:
    """Evaluate a functional operator on concrete values."""
    if len(values) == 1:
        if operator in _UNARY_OPERATORS:
            return _UNARY_OPERATORS[operator](values[0])
        if operator in _OPERATORS:
            raise ValueError(f"operator {operator!r} expects two operands")
    if len(values) == 2 and operator in _OPERATORS:
        return _OPERATORS[operator](values[0], values[1])
    raise ValueError(f"unsupported operator {operator!r} with {len(values)} operands")


class _InstantSolver:
    """Constraint propagation for a single instant."""

    def __init__(self, process: NormalizedProcess, state: Mapping[str, object]):
        self.process = process
        self.state = state
        self.presence: Dict[str, str] = {name: UNKNOWN for name in process.all_signals()}
        self.values: Dict[str, object] = {}

    # -- elementary updates -----------------------------------------------
    def set_presence(self, name: str, status: str) -> bool:
        current = self.presence[name]
        if current == status:
            return False
        if current != UNKNOWN:
            raise ClockError(
                f"signal {name!r} is both {current} and {status} in the same instant"
            )
        self.presence[name] = status
        return True

    def set_value(self, name: str, value: object) -> bool:
        changed = self.set_presence(name, PRESENT)
        if name in self.values:
            if self.values[name] != value:
                raise ClockError(
                    f"signal {name!r} takes two different values "
                    f"({self.values[name]!r} and {value!r}) in the same instant"
                )
            return changed
        self.values[name] = value
        return True

    # -- operand helpers ------------------------------------------------------
    def operand_presence(self, operand) -> str:
        if isinstance(operand, Const):
            return PRESENT
        return self.presence[operand]

    def operand_value(self, operand):
        if isinstance(operand, Const):
            return operand.value
        return self.values.get(operand)

    # -- clock expression evaluation (three-valued) -----------------------------
    def eval_clock(self, expression: ClockExpressionSyntax) -> Optional[bool]:
        """Evaluate a clock expression to True / False / None (unknown)."""
        if isinstance(expression, ClockEmpty):
            return False
        if isinstance(expression, ClockOf):
            status = self.presence[expression.name]
            if status == PRESENT:
                return True
            if status == MISSING:
                return False
            return None
        if isinstance(expression, (ClockTrue, ClockFalse)):
            status = self.presence[expression.name]
            if status == MISSING:
                return False
            if status == PRESENT:
                value = self.values.get(expression.name)
                if value is None:
                    return None
                truth = bool(value)
                return truth if isinstance(expression, ClockTrue) else not truth
            return None
        if isinstance(expression, ClockBinary):
            left = self.eval_clock(expression.left)
            right = self.eval_clock(expression.right)
            if expression.operator == "and":
                if left is False or right is False:
                    return False
                if left is True and right is True:
                    return True
                return None
            if expression.operator == "or":
                if left is True or right is True:
                    return True
                if left is False and right is False:
                    return False
                return None
            if expression.operator == "diff":
                if left is False:
                    return False
                if left is True and right is False:
                    return True
                if right is True:
                    return False
                return None
        raise TypeError(f"unsupported clock expression: {expression!r}")

    def force_clock(self, expression: ClockExpressionSyntax, truth: bool) -> bool:
        """Propagate a known truth value into an atomic clock expression."""
        changed = False
        if isinstance(expression, ClockOf):
            changed |= self.set_presence(expression.name, PRESENT if truth else MISSING)
        elif isinstance(expression, ClockTrue):
            if truth:
                changed |= self.set_value(expression.name, True)
            elif self.presence[expression.name] == PRESENT and self.values.get(
                expression.name
            ) is None:
                # present but [x] is false: the value must be false
                changed |= self.set_value(expression.name, False)
        elif isinstance(expression, ClockFalse):
            if truth:
                changed |= self.set_value(expression.name, False)
            elif self.presence[expression.name] == PRESENT and self.values.get(
                expression.name
            ) is None:
                changed |= self.set_value(expression.name, True)
        elif isinstance(expression, ClockBinary) and truth:
            if expression.operator == "and":
                changed |= self.force_clock(expression.left, True)
                changed |= self.force_clock(expression.right, True)
            elif expression.operator == "or":
                left = self.eval_clock(expression.left)
                right = self.eval_clock(expression.right)
                if left is False:
                    changed |= self.force_clock(expression.right, True)
                elif right is False:
                    changed |= self.force_clock(expression.left, True)
            elif expression.operator == "diff":
                changed |= self.force_clock(expression.left, True)
                changed |= self.force_clock(expression.right, False)
        elif isinstance(expression, ClockBinary) and not truth:
            if expression.operator == "or":
                changed |= self.force_clock(expression.left, False)
                changed |= self.force_clock(expression.right, False)
            elif expression.operator == "and":
                left = self.eval_clock(expression.left)
                right = self.eval_clock(expression.right)
                if left is True:
                    changed |= self.force_clock(expression.right, False)
                elif right is True:
                    changed |= self.force_clock(expression.left, False)
        return changed

    # -- equation propagation ------------------------------------------------
    def propagate_equation(self, equation) -> bool:
        changed = False
        if isinstance(equation, FunctionEquation):
            members = [equation.target] + list(equation.read_signals())
            statuses = [self.presence[name] for name in members]
            if any(status == PRESENT for status in statuses):
                for name in members:
                    changed |= self.set_presence(name, PRESENT)
            if any(status == MISSING for status in statuses):
                for name in members:
                    changed |= self.set_presence(name, MISSING)
            if self.presence[equation.target] == PRESENT:
                operand_values = [self.operand_value(op) for op in equation.operands]
                if all(value is not None for value in operand_values):
                    result = apply_operator(equation.operator, tuple(operand_values))
                    changed |= self.set_value(equation.target, result)
        elif isinstance(equation, DelayEquation):
            members = [equation.target, equation.source]
            statuses = [self.presence[name] for name in members]
            if any(status == PRESENT for status in statuses):
                for name in members:
                    changed |= self.set_presence(name, PRESENT)
            if any(status == MISSING for status in statuses):
                for name in members:
                    changed |= self.set_presence(name, MISSING)
            if self.presence[equation.target] == PRESENT:
                changed |= self.set_value(equation.target, self.state[equation.target])
        elif isinstance(equation, SamplingEquation):
            condition = equation.condition
            condition_status = self.presence[condition]
            condition_value = self.values.get(condition)
            source_status = self.operand_presence(equation.source)
            # downward: condition absent/false or source absent forces absence
            if condition_status == MISSING or (
                condition_status == PRESENT and condition_value is False
            ):
                changed |= self.set_presence(equation.target, MISSING)
            if source_status == MISSING:
                changed |= self.set_presence(equation.target, MISSING)
            # downward: everything present and condition true forces presence
            if (
                condition_status == PRESENT
                and condition_value is True
                and source_status == PRESENT
            ):
                changed |= self.set_presence(equation.target, PRESENT)
            # upward: target present forces condition true and source present
            if self.presence[equation.target] == PRESENT:
                changed |= self.set_value(condition, True)
                if isinstance(equation.source, str):
                    changed |= self.set_presence(equation.source, PRESENT)
            # value
            if self.presence[equation.target] == PRESENT:
                source_value = self.operand_value(equation.source)
                if source_value is not None:
                    changed |= self.set_value(equation.target, source_value)
        elif isinstance(equation, MergeEquation):
            target = equation.target
            preferred = equation.preferred
            alternative = equation.alternative
            if self.presence[preferred] == PRESENT or self.presence[alternative] == PRESENT:
                changed |= self.set_presence(target, PRESENT)
            if self.presence[preferred] == MISSING and self.presence[alternative] == MISSING:
                changed |= self.set_presence(target, MISSING)
            if self.presence[target] == MISSING:
                changed |= self.set_presence(preferred, MISSING)
                changed |= self.set_presence(alternative, MISSING)
            if self.presence[target] == PRESENT:
                if self.presence[preferred] == MISSING:
                    changed |= self.set_presence(alternative, PRESENT)
                if self.presence[alternative] == MISSING and self.presence[preferred] == UNKNOWN:
                    changed |= self.set_presence(preferred, PRESENT)
            # value
            if self.presence[preferred] == PRESENT and preferred in self.values:
                changed |= self.set_value(target, self.values[preferred])
            elif (
                self.presence[preferred] == MISSING
                and self.presence[alternative] == PRESENT
                and alternative in self.values
            ):
                changed |= self.set_value(target, self.values[alternative])
        elif isinstance(equation, ClockEquation):
            left = self.eval_clock(equation.left)
            right = self.eval_clock(equation.right)
            if left is not None and right is not None and left != right:
                raise ClockError(
                    f"clock constraint violated: {equation.left!r} = {equation.right!r}"
                )
            if left is not None and right is None:
                changed |= self.force_clock(equation.right, left)
            if right is not None and left is None:
                changed |= self.force_clock(equation.left, right)
        else:
            raise TypeError(f"unsupported primitive equation: {equation!r}")
        return changed

    def propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for equation in self.process.equations:
                changed |= self.propagate_equation(equation)

    # -- final checks --------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify every equation is satisfied by the completed assignment."""
        for equation in self.process.equations:
            if isinstance(equation, ClockEquation):
                left = self.eval_clock(equation.left)
                right = self.eval_clock(equation.right)
                if left is None or right is None or left != right:
                    raise ClockError(
                        f"clock constraint unsatisfied: {equation.left!r} = {equation.right!r}"
                    )
            elif isinstance(equation, SamplingEquation):
                condition_present = self.presence[equation.condition] == PRESENT
                condition_true = condition_present and bool(self.values.get(equation.condition))
                source_present = self.operand_presence(equation.source) == PRESENT
                expected = condition_true and source_present
                actual = self.presence[equation.target] == PRESENT
                if expected != actual:
                    raise ClockError(
                        f"sampling equation for {equation.target!r} unsatisfied"
                    )
            elif isinstance(equation, MergeEquation):
                expected = (
                    self.presence[equation.preferred] == PRESENT
                    or self.presence[equation.alternative] == PRESENT
                )
                actual = self.presence[equation.target] == PRESENT
                if expected != actual:
                    raise ClockError(f"merge equation for {equation.target!r} unsatisfied")
            elif isinstance(equation, (FunctionEquation, DelayEquation)):
                members = [equation.target] + list(equation.read_signals())
                statuses = {self.presence[name] for name in members}
                if PRESENT in statuses and MISSING in statuses:
                    raise ClockError(
                        f"synchronous signals of {equation!r} disagree on presence"
                    )
            if (
                equation.defined_signal() is not None
                and self.presence[equation.defined_signal()] == PRESENT
                and equation.defined_signal() not in self.values
            ):
                raise UnderdeterminedError(
                    f"present signal {equation.defined_signal()!r} has no value"
                )


#: instrumentation: total reactions solved by any interpreter instance.  The
#: compiled engine (:mod:`repro.mc.compiled`) promises *zero* interpreter
#: evaluations on its per-state path; tests pin that promise on this counter.
EVALUATIONS = 0


def evaluation_count() -> int:
    """Total :meth:`SignalInterpreter.step` invocations since the last reset."""
    return EVALUATIONS


def reset_evaluation_count() -> int:
    """Reset the global step counter; returns the value it had."""
    global EVALUATIONS
    previous = EVALUATIONS
    EVALUATIONS = 0
    return previous


class SignalInterpreter:
    """Reaction-by-reaction execution of a normalized process."""

    def __init__(self, process: NormalizedProcess):
        self.process = process
        self.state: Dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        """Reset every delay register to its initial value."""
        self.state = {
            equation.target: equation.initial
            for equation in self.process.equations
            if isinstance(equation, DelayEquation)
        }

    def snapshot_state(self) -> Dict[str, object]:
        return dict(self.state)

    def restore_state(self, state: Mapping[str, object]) -> None:
        self.state = dict(state)

    def step(
        self,
        inputs: Optional[Mapping[str, object]] = None,
        assume: Optional[Mapping[str, object]] = None,
        default_absent: bool = True,
        commit: bool = True,
    ) -> InstantResult:
        """Compute one reaction.

        ``inputs`` maps input signals to a value or to :data:`ABSENT`.  Input
        signals not mentioned are left unknown (and completed by absence when
        ``default_absent`` is true).  ``assume`` adds presence/value
        assumptions on arbitrary signals, which is how a simulation driver
        activates an internal master clock.  When ``commit`` is false the
        delay registers are left untouched (used for exploration).
        """
        global EVALUATIONS
        EVALUATIONS += 1
        solver = _InstantSolver(self.process, self.state)
        for name, value in (inputs or {}).items():
            if name not in solver.presence:
                raise KeyError(f"unknown signal {name!r}")
            if value is ABSENT:
                solver.set_presence(name, MISSING)
            else:
                solver.set_value(name, value)
        for name, value in (assume or {}).items():
            if name not in solver.presence:
                raise KeyError(f"unknown signal {name!r}")
            if value is ABSENT:
                solver.set_presence(name, MISSING)
            elif value is TICK:
                solver.set_presence(name, PRESENT)
            else:
                solver.set_value(name, value)
        solver.propagate()

        if default_absent:
            for name, status in solver.presence.items():
                if status == UNKNOWN:
                    solver.presence[name] = MISSING
            solver.propagate()

        unknown = [name for name, status in solver.presence.items() if status == UNKNOWN]
        if unknown:
            raise UnderdeterminedError(
                f"presence of signals {sorted(unknown)} cannot be determined"
            )
        solver.check_consistency()

        presence = {name: status == PRESENT for name, status in solver.presence.items()}
        values = dict(solver.values)
        reaction = Reaction(
            self.process.all_signals(),
            {name: values[name] for name, is_present in presence.items() if is_present},
        )
        if commit:
            for equation in self.process.equations:
                if isinstance(equation, DelayEquation) and presence[equation.source]:
                    self.state[equation.target] = values[equation.source]
        return InstantResult(presence=presence, values=values, reaction=reaction)

    def try_step(
        self,
        inputs: Optional[Mapping[str, object]] = None,
        assume: Optional[Mapping[str, object]] = None,
        default_absent: bool = True,
        commit: bool = False,
    ) -> Optional[InstantResult]:
        """Like :meth:`step` but returns ``None`` instead of raising on failure."""
        saved = self.snapshot_state()
        try:
            return self.step(inputs, assume, default_absent, commit)
        except (ClockError, UnderdeterminedError):
            self.restore_state(saved)
            return None
