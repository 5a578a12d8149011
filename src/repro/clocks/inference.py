"""The clock inference system ``P : R`` of Section 3.2.

Every primitive equation contributes clock relations and scheduling
relations:

* delay ``x = y pre v``          : ``x^ = y^`` (no scheduling relation);
* sampling ``x = y when z``      : ``x^ = y^ ∧ [z]`` and ``y →x^ x``;
* merge ``x = y default z``      : ``x^ = y^ ∨ z^``, ``y →y^ x`` and ``z →z^\\y^ x``;
* function ``x = f(y, z)``       : ``x^ = y^ = z^``, ``y →x^ x`` and ``z →x^ x``;
* explicit constraints ``c = e`` are kept as they are.

Constants occurring as operands contribute no clock of their own (a constant
adopts the clock of its context), so a sampling of a constant
``x = v when z`` simply yields ``x^ = [z]``.
"""

from __future__ import annotations


from repro.clocks.relations import TimingRelations, signal_node
from repro.lang.ast import ClockBinary, ClockOf, ClockTrue, Const
from repro.lang.normalize import (
    ClockEquation,
    DelayEquation,
    FunctionEquation,
    MergeEquation,
    NormalizedProcess,
    SamplingEquation,
)


def infer_timing_relations(process: NormalizedProcess) -> TimingRelations:
    """Compute the timing relations ``R`` of a normalized process."""
    relations = TimingRelations()
    for equation in process.equations:
        if isinstance(equation, FunctionEquation):
            _infer_function(equation, relations)
        elif isinstance(equation, DelayEquation):
            relations.add_clock_relation(ClockOf(equation.target), ClockOf(equation.source))
        elif isinstance(equation, SamplingEquation):
            _infer_sampling(equation, relations)
        elif isinstance(equation, MergeEquation):
            _infer_merge(equation, relations)
        elif isinstance(equation, ClockEquation):
            relations.add_clock_relation(equation.left, equation.right)
        else:
            raise TypeError(f"unsupported primitive equation: {equation!r}")
    return relations.hide(process.locals)


def _infer_function(equation: FunctionEquation, relations: TimingRelations) -> None:
    """``x = y f z``: synchronize the target with every signal operand."""
    target_clock = ClockOf(equation.target)
    signal_operands = [operand for operand in equation.operands if isinstance(operand, str)]
    for operand in signal_operands:
        relations.add_clock_relation(target_clock, ClockOf(operand))
        relations.add_scheduling_relation(
            signal_node(operand), signal_node(equation.target), target_clock
        )


def _infer_sampling(equation: SamplingEquation, relations: TimingRelations) -> None:
    """``x = y when z``: ``x^ = y^ ∧ [z]`` (or ``[z]`` alone for a constant ``y``)."""
    target_clock = ClockOf(equation.target)
    condition_clock = ClockTrue(equation.condition)
    if isinstance(equation.source, Const):
        relations.add_clock_relation(target_clock, condition_clock)
    else:
        relations.add_clock_relation(
            target_clock, ClockBinary("and", ClockOf(equation.source), condition_clock)
        )
        relations.add_scheduling_relation(
            signal_node(equation.source), signal_node(equation.target), target_clock
        )
    relations.add_scheduling_relation(
        signal_node(equation.condition), signal_node(equation.target), target_clock
    )


def _infer_merge(equation: MergeEquation, relations: TimingRelations) -> None:
    """``x = y default z``: ``x^ = y^ ∨ z^`` with priority scheduling."""
    target_clock = ClockOf(equation.target)
    preferred_clock = ClockOf(equation.preferred)
    alternative_clock = ClockOf(equation.alternative)
    relations.add_clock_relation(
        target_clock, ClockBinary("or", preferred_clock, alternative_clock)
    )
    relations.add_scheduling_relation(
        signal_node(equation.preferred), signal_node(equation.target), preferred_clock
    )
    relations.add_scheduling_relation(
        signal_node(equation.alternative),
        signal_node(equation.target),
        ClockBinary("diff", alternative_clock, preferred_clock),
    )
