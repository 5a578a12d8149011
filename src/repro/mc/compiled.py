"""The compiled reaction engine: solve for admissible reactions, don't guess.

The paper compiles Signal programs to polynomial transition systems so that
Sigali can *solve* for admissible reactions; the interpreter-backed
:class:`~repro.mc.transition.BooleanAbstraction` instead enumerates all
``2^k`` candidate activations per state and runs the full
:class:`SignalInterpreter` on each to accept or reject it.  This module reproduces the paper's move for the
boolean abstraction: the normalized equations are compiled **once** into a
BDD over event, value and register variables —

* ``e·x``  — presence of signal ``x`` in the reaction;
* ``d·x``  — the boolean value ``x`` carries when present (boolean signals
  only; absent signals have ``d·x`` normalized to false so each admissible
  reaction is exactly one satisfying assignment);
* ``s·r`` / ``s'·r`` — the current / next value of boolean register ``r``

— and ``reactions(state)`` becomes ``step.restrict(state)`` followed by the
output-sensitive :meth:`~repro.bdd.bdd.BDDManager.satisfy_all` walk: the
cost per state is proportional to the number of *admissible* reactions, not
to the number of candidates, and **zero interpreter evaluations** happen on
the per-state path (``tests/test_compiled.py`` pins this on the
interpreter's instrumentation counter).

The engine compiles the fragment of the abstraction whose boolean values
are boolean-definable: processes whose boolean signals are computed by
boolean operators, delays, samplings and merges over boolean operands.
Boolean values produced from *numeric data* (comparisons such as
``x < y``), and boolean non-input signals with no defining equation (whose
value only the interpreter's solver could rule out), are outside the
fragment — :func:`compilation_obstacles` names the offending equations and
:meth:`CompiledAbstraction.try_compile` returns ``None`` so callers fall
back to the interpreter-backed enumeration transparently.

The compiled step relation lives on a **private**
:class:`~repro.bdd.bdd.BDDManager` whose variables are declared in the
process's structural :class:`~repro.clocks.order.VariableOrder` (signals in
DFS fan-in order, each ``e·x`` adjacent to its ``d·x`` and each register's
``s·r`` / ``s'·r`` right after it); no clock hierarchy is built.  That
order is final: after compilation the manager only sheds its intermediate
conjuncts (:meth:`~repro.bdd.bdd.BDDManager.collect_garbage`), and no
dynamic reordering runs.

The interpreter is kept as a *cross-check oracle*: ``cross_check=True``
verifies every per-state answer against
:meth:`~repro.mc.transition.BooleanAbstraction.reactions` (used by the
equivalence tests; off on the production path).  The oracle builds its own
clock hierarchy; the compiled path never does.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bdd.bdd import BDD, BDDManager
from repro.clocks.order import structural_order
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
from repro.mc.transition import (
    CANONICAL_NUMERIC_VALUE,
    BooleanAbstraction,
    State,
)
from repro.mocc.interning import intern_state
from repro.mocc.reactions import Reaction

from repro.mc.symbolic import (
    current_variable,
    event_variable,
    next_variable,
    symbolic_variables,
    value_variable,
)

#: boolean operators the step relation can encode directly
_BOOLEAN_OPERATORS = frozenset({"and", "or", "xor", "not", "id", "=", "/="})


class CompilationError(ValueError):
    """The process is outside the boolean-definable fragment."""


def _is_bool(process: NormalizedProcess, operand) -> bool:
    """Is this operand (signal name or constant) boolean-valued?"""
    if isinstance(operand, Const):
        return isinstance(operand.value, bool)
    return process.types.get(operand) == "bool"


def compilation_obstacles(process: NormalizedProcess) -> List[str]:
    """Why the process cannot be compiled (empty list = compilable).

    The compiled relation tracks boolean values only; every equation that
    *produces* a boolean value must therefore compute it from boolean
    operands.  A boolean non-input signal with no defining equation is also
    rejected: its value would be a free variable of the relation, where the
    interpreter's solver rejects the reaction as underdetermined.
    """
    obstacles: List[str] = []
    booleans = set(process.boolean_signals())
    defined: Set[str] = set()
    for equation in process.equations:
        target = equation.defined_signal()
        if target is not None:
            defined.add(target)
        if isinstance(equation, FunctionEquation):
            if equation.target not in booleans:
                continue
            if equation.operator not in _BOOLEAN_OPERATORS:
                obstacles.append(
                    f"boolean {equation.target!r} is computed by {equation.operator!r} "
                    "(a data comparison the boolean abstraction cannot express)"
                )
                continue
            for operand in equation.operands:
                if equation.operator == "id" and isinstance(operand, Const):
                    if not isinstance(operand.value, bool):
                        obstacles.append(
                            f"boolean {equation.target!r} is defined by the non-boolean "
                            f"constant {operand.value!r}"
                        )
                    continue
                if not _is_bool(process, operand):
                    obstacles.append(
                        f"boolean {equation.target!r} depends on non-boolean operand "
                        f"{operand!r}"
                    )
        elif isinstance(equation, DelayEquation):
            if equation.target in booleans and not _is_bool(process, equation.source):
                obstacles.append(
                    f"boolean register {equation.target!r} delays non-boolean "
                    f"{equation.source!r}"
                )
        elif isinstance(equation, SamplingEquation):
            if process.types.get(equation.condition) != "bool":
                obstacles.append(
                    f"sampling condition {equation.condition!r} is not boolean"
                )
            if equation.target in booleans and not _is_bool(process, equation.source):
                obstacles.append(
                    f"boolean {equation.target!r} samples non-boolean "
                    f"{equation.source!r}"
                )
        elif isinstance(equation, MergeEquation):
            if equation.target in booleans and not (
                _is_bool(process, equation.preferred)
                and _is_bool(process, equation.alternative)
            ):
                obstacles.append(
                    f"boolean {equation.target!r} merges non-boolean branches"
                )
        elif isinstance(equation, ClockEquation):
            for side in (equation.left, equation.right):
                for name in _value_literal_signals(side):
                    if name not in booleans:
                        obstacles.append(
                            f"clock literal over non-boolean signal {name!r}"
                        )
    inputs = set(process.inputs)
    for name in sorted(booleans):
        if name not in inputs and name not in defined:
            obstacles.append(
                f"boolean {name!r} is neither an input nor defined by any equation "
                "(its value would be unconstrained)"
            )
    return obstacles


def _value_literal_signals(expression: ClockExpressionSyntax) -> Set[str]:
    if isinstance(expression, (ClockTrue, ClockFalse)):
        return {expression.name}
    if isinstance(expression, ClockBinary):
        return _value_literal_signals(expression.left) | _value_literal_signals(
            expression.right
        )
    return set()


class CompiledAbstraction:
    """Drop-in replacement for :class:`BooleanAbstraction` on the compiled path.

    Exposes the same two entry points the on-the-fly engine drives —
    :meth:`initial_state` and :meth:`reactions` — but answers them from the
    compiled step relation.  Raises :class:`CompilationError` outside the
    fragment; use :meth:`try_compile` for the fall-back-to-``None`` form.
    """

    def __init__(
        self,
        process: NormalizedProcess,
        cross_check: bool = False,
    ):
        obstacles = compilation_obstacles(process)
        if obstacles:
            raise CompilationError(
                f"{process.name} is outside the compiled fragment: "
                + "; ".join(obstacles[:3])
            )
        self.process = process
        self._boolean = set(process.boolean_signals())
        self._signals: Tuple[str, ...] = process.all_signals()
        self._registers: Tuple[str, ...] = tuple(
            name for name in process.state_signals() if name in self._boolean
        )
        self._initial_values: Dict[str, object] = {
            equation.target: equation.initial
            for equation in process.equations
            if isinstance(equation, DelayEquation)
        }
        self.manager = BDDManager(self._seed_variable_order())
        self.step = self._compile()
        (self.step,) = self.manager.collect_garbage([self.step])
        self._precompute_columns()
        self._oracle: Optional[BooleanAbstraction] = (
            BooleanAbstraction(process) if cross_check else None
        )
        #: instrumentation for the benchmarks: per-state queries served and
        #: reactions enumerated by the BDD walk
        self.states_enumerated = 0
        self.reactions_enumerated = 0

    @classmethod
    def try_compile(cls, process: NormalizedProcess) -> Optional["CompiledAbstraction"]:
        """The compiled abstraction, or ``None`` outside the fragment."""
        try:
            return cls(process)
        except CompilationError:
            return None

    def _precompute_columns(self) -> None:
        """Fix the enumeration layout once, so ``reactions`` indexes rows.

        ``_enumerate_variables`` is the column order of the satisfying-
        assignment matrix: every signal's event variable, then the value
        variables of the boolean signals, then the registers' next-state
        variables.  Decoding a reaction from a row is then pure integer
        indexing — no per-row dictionary, no per-row name mangling.
        """
        self._enumerate_variables: Tuple[str, ...] = tuple(
            [event_variable(name) for name in self._signals]
            + [value_variable(name) for name in self._signals if name in self._boolean]
            + [next_variable(register) for register in self._registers]
        )
        width = len(self._signals)
        value_column: Dict[str, int] = {}
        for name in self._signals:
            if name in self._boolean:
                value_column[name] = width
                width += 1
        self._signal_columns: Tuple[Tuple[str, int, Optional[int]], ...] = tuple(
            (name, index, value_column.get(name))
            for index, name in enumerate(self._signals)
        )
        self._register_columns: Tuple[Tuple[str, int], ...] = tuple(
            (register, width + offset)
            for offset, register in enumerate(self._registers)
        )

    # -- variable order ----------------------------------------------------------
    def _seed_variable_order(self) -> Tuple[str, ...]:
        """The step relation's variables in the process's structural
        :class:`~repro.clocks.order.VariableOrder`: signals in DFS fan-in
        order, each ``e·x`` next to its ``d·x``, each register's ``s·r`` and
        ``s'·r`` right after the register — so an equation's variables sit
        close together and the relation stays shallow.
        """
        return symbolic_variables(structural_order([self.process]))

    # -- compilation -------------------------------------------------------------
    def _event(self, name: str) -> BDD:
        return self.manager.var(event_variable(name))

    def _value(self, name: str) -> BDD:
        return self.manager.var(value_variable(name))

    def _operand_value(self, operand) -> BDD:
        if isinstance(operand, Const):
            return self.manager.constant(bool(operand.value))
        return self._value(operand)

    def _operand_presence(self, operand) -> BDD:
        if isinstance(operand, Const):
            return self.manager.true
        return self._event(operand)

    def _compile(self) -> BDD:
        # canonical values: an absent boolean signal carries value false, so
        # admissible reactions and satisfying assignments are in bijection
        parts: List[BDD] = [
            self._event(name) | ~self._value(name)
            for name in self._signals
            if name in self._boolean
        ]
        # every register's next value is fixed by its delay equation (held
        # when the source is absent), so no separate frame constraint is needed
        parts.extend(self._compile_equation(equation) for equation in self.process.equations)
        if not parts:
            return self.manager.true
        # balanced conjunction: neighbouring equations constrain neighbouring
        # signals, so pairing them keeps the intermediate BDDs local and small
        while len(parts) > 1:
            paired = [left & right for left, right in zip(parts[::2], parts[1::2])]
            if len(parts) % 2:
                paired.append(parts[-1])
            parts = paired
        return parts[0]

    def _compile_equation(self, equation) -> BDD:
        manager = self.manager
        if isinstance(equation, FunctionEquation):
            target_event = self._event(equation.target)
            constraint = manager.true
            for operand in equation.operands:
                if not isinstance(operand, Const):
                    constraint = constraint & target_event.iff(self._event(operand))
            if equation.target in self._boolean:
                value = self._function_value(equation)
                constraint = constraint & target_event.implies(
                    self._value(equation.target).iff(value)
                )
            return constraint
        if isinstance(equation, DelayEquation):
            target_event = self._event(equation.target)
            constraint = target_event.iff(self._event(equation.source))
            if equation.target in self._registers:
                current = manager.var(current_variable(equation.target))
                nxt = manager.var(next_variable(equation.target))
                constraint = constraint & target_event.implies(
                    self._value(equation.target).iff(current)
                )
                written = self._event(equation.source)
                constraint = constraint & nxt.iff(
                    written.ite(self._operand_value(equation.source), current)
                )
            return constraint
        if isinstance(equation, SamplingEquation):
            condition_true = self._event(equation.condition) & self._value(
                equation.condition
            )
            active = condition_true & self._operand_presence(equation.source)
            constraint = self._event(equation.target).iff(active)
            if equation.target in self._boolean:
                constraint = constraint & self._event(equation.target).implies(
                    self._value(equation.target).iff(self._operand_value(equation.source))
                )
            return constraint
        if isinstance(equation, MergeEquation):
            preferred = self._event(equation.preferred)
            alternative = self._event(equation.alternative)
            constraint = self._event(equation.target).iff(preferred | alternative)
            if equation.target in self._boolean:
                chosen = preferred.ite(
                    self._value(equation.preferred), self._value(equation.alternative)
                )
                constraint = constraint & self._event(equation.target).implies(
                    self._value(equation.target).iff(chosen)
                )
            return constraint
        if isinstance(equation, ClockEquation):
            return self._encode_clock(equation.left).iff(self._encode_clock(equation.right))
        raise CompilationError(f"unsupported primitive equation: {equation!r}")

    def _function_value(self, equation: FunctionEquation) -> BDD:
        operator = equation.operator
        operands = [self._operand_value(operand) for operand in equation.operands]
        if operator == "id":
            return operands[0]
        if operator == "not":
            return ~operands[0]
        if operator == "and":
            return self.manager.conjoin(operands)
        if operator == "or":
            return self.manager.disjoin(operands)
        if operator == "xor":
            result = operands[0]
            for operand in operands[1:]:
                result = result ^ operand
            return result
        if operator == "=":
            return operands[0].iff(operands[1])
        if operator == "/=":
            return operands[0] ^ operands[1]
        raise CompilationError(f"operator {operator!r} is outside the boolean fragment")

    def _encode_clock(self, expression: ClockExpressionSyntax) -> BDD:
        if isinstance(expression, ClockEmpty):
            return self.manager.false
        if isinstance(expression, ClockOf):
            return self._event(expression.name)
        if isinstance(expression, ClockTrue):
            return self._event(expression.name) & self._value(expression.name)
        if isinstance(expression, ClockFalse):
            return self._event(expression.name) & ~self._value(expression.name)
        if isinstance(expression, ClockBinary):
            left = self._encode_clock(expression.left)
            right = self._encode_clock(expression.right)
            if expression.operator == "and":
                return left & right
            if expression.operator == "or":
                return left | right
            if expression.operator == "diff":
                return left & ~right
        raise CompilationError(f"unsupported clock expression: {expression!r}")

    # -- the BooleanAbstraction interface ----------------------------------------
    def initial_state(self) -> State:
        return intern_state(
            tuple((name, self._initial_values[name]) for name in self._registers)
        )

    def reactions(self, state: State) -> List[Tuple[Reaction, State]]:
        """The admissible reactions from ``state`` with their successor states.

        One cofactor on the register variables, then the output-sensitive
        satisfying-assignment enumeration — as a matrix
        (:meth:`~repro.bdd.bdd.BDDManager.satisfy_matrix`), decoded by the
        column indices fixed in :meth:`_precompute_columns`: no candidate
        generation, no rejected activations, no interpreter, no per-row
        dictionaries.  Like :meth:`BooleanAbstraction.reactions`, this does
        not memoize — the lazy LTS layer
        (:class:`~repro.mc.onthefly.LazyReactionLTS`) caches successor sets
        per state for both engines.
        """
        assignment = {current_variable(name): bool(value) for name, value in state}
        cofactor = self.step.restrict(assignment)
        results: List[Tuple[Reaction, State]] = []
        for row in cofactor.satisfy_matrix(self._enumerate_variables):
            events: Dict[str, object] = {}
            for name, event_column, value_column in self._signal_columns:
                if row[event_column]:
                    events[name] = (
                        row[value_column]
                        if value_column is not None
                        else CANONICAL_NUMERIC_VALUE
                    )
            reaction = Reaction.interned(self._signals, events)
            successor = intern_state(
                tuple(
                    (register, row[column])
                    for register, column in self._register_columns
                )
            )
            results.append((reaction, successor))
        self.states_enumerated += 1
        self.reactions_enumerated += len(results)
        if self._oracle is not None:
            self._cross_check(state, results)
        return results

    def _cross_check(self, state: State, results: Sequence[Tuple[Reaction, State]]) -> None:
        """Oracle mode: the interpreter-backed enumeration must agree exactly."""
        expected = {(reaction, successor) for reaction, successor in self._oracle.reactions(state)}
        actual = set(results)
        if expected != actual:
            missing = expected - actual
            extra = actual - expected
            raise AssertionError(
                f"compiled engine disagrees with the interpreter at state {dict(state)}: "
                f"missing {sorted(map(repr, missing))[:3]}, extra {sorted(map(repr, extra))[:3]}"
            )

    # -- serialization ------------------------------------------------------------
    #: payload schema version; bump when the encoding of the relation or its
    #: variable order changes (2: structural variable order)
    PAYLOAD_FORMAT = 2

    def to_payload(self) -> Dict[str, object]:
        """A JSON-safe snapshot of the compiled engine for the artifact store.

        Records the step relation (via :meth:`BDDManager.dump`, so only the
        reachable nodes travel), the signal/register metadata the
        enumeration walk needs, and the content digest of the compiled
        process — :meth:`from_payload` refuses a payload whose digest does
        not match the process it is being attached to.
        """
        from repro.lang.printer import process_digest

        return {
            "format": self.PAYLOAD_FORMAT,
            "process": self.process.name,
            "digest": process_digest(self.process),
            "signals": list(self._signals),
            "boolean": sorted(self._boolean),
            "registers": list(self._registers),
            "initial": {
                name: self._initial_values[name] for name in self._registers
            },
            "step": self.manager.dump([self.step]),
        }

    @classmethod
    def from_payload(
        cls,
        process: NormalizedProcess,
        payload: Mapping[str, object],
    ) -> "CompiledAbstraction":
        """Reattach a stored step relation to ``process`` without recompiling.

        The reconstruction is linear in the stored node count: no equation
        compilation and no conjunction schedule, which is the whole point of
        persisting the relation.  Raises ``ValueError`` when
        the payload's format or content digest does not match.
        """
        from repro.lang.printer import process_digest

        if payload.get("format") != cls.PAYLOAD_FORMAT:
            raise ValueError(
                f"unsupported compiled-abstraction payload format {payload.get('format')!r}"
            )
        digest = process_digest(process)
        if payload.get("digest") != digest:
            raise ValueError(
                f"compiled payload was built for digest {payload.get('digest')!r}, "
                f"not for {process.name!r} ({digest})"
            )
        # α-equivalent processes share a digest but may spell their hidden
        # locals differently; the stored relation names concrete signals, so
        # it only fits a process with the *same* spellings — anything else
        # must recompile (the store treats this ValueError as a miss)
        if tuple(payload["signals"]) != process.all_signals():
            raise ValueError(
                f"compiled payload names signals {payload['signals']!r} but "
                f"{process.name!r} has {process.all_signals()!r} "
                "(α-variant of the stored process)"
            )
        instance = cls.__new__(cls)
        instance.process = process
        instance._boolean = set(payload["boolean"])
        instance._signals = tuple(payload["signals"])
        instance._registers = tuple(payload["registers"])
        instance._initial_values = dict(payload["initial"])
        manager, (step,) = BDDManager.load(payload["step"])
        instance.manager = manager
        instance.step = step
        instance._precompute_columns()
        instance._oracle = None
        instance.states_enumerated = 0
        instance.reactions_enumerated = 0
        return instance

    # -- reporting ----------------------------------------------------------------
    def bdd_nodes(self) -> int:
        """Nodes of the compiled step relation."""
        return self.step.node_count()

    def statistics(self) -> Dict[str, int]:
        return {
            "step_nodes": self.bdd_nodes(),
            "variables": len(self.manager.variables()),
            "states_enumerated": self.states_enumerated,
            "reactions_enumerated": self.reactions_enumerated,
        }


def compiled_artifact_payload(
    process: NormalizedProcess, abstraction: Optional["CompiledAbstraction"]
) -> Dict[str, object]:
    """The artifact-store payload of a compilation result, positive or negative.

    A ``None`` abstraction is the *negative* answer — the process is outside
    the boolean-definable fragment — persisted with its obstacles and the
    payload format, so a later release that widens the fragment invalidates
    stale negatives instead of pinning the process to the interpreter.
    """
    if abstraction is None:
        return {
            "compilable": False,
            "format": CompiledAbstraction.PAYLOAD_FORMAT,
            "process": process.name,
            "obstacles": compilation_obstacles(process),
        }
    return {
        "compilable": True,
        "process": process.name,
        "abstraction": abstraction.to_payload(),
    }


def compiled_from_artifact(
    process: NormalizedProcess,
    payload: Mapping[str, object],
) -> Optional["CompiledAbstraction"]:
    """Decode a persisted compilation result back onto ``process``.

    Returns ``None`` for a valid persisted negative answer; raises
    ``ValueError`` / ``KeyError`` / ``TypeError`` when the payload is stale
    (format bump, negative from an older fragment) or was built for an
    α-variant with different signal spellings — callers treat that as a
    cache miss and recompile.
    """
    if not payload.get("compilable", True):
        if payload.get("format") != CompiledAbstraction.PAYLOAD_FORMAT:
            raise ValueError(
                "negative compilation answer from payload format "
                f"{payload.get('format')!r}; the fragment may have widened"
            )
        return None
    return CompiledAbstraction.from_payload(process, payload["abstraction"])

