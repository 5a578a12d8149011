"""Static validation of Signal process definitions.

Validation catches the errors that would otherwise surface as confusing
failures deep inside the clock calculus: signals defined more than once,
outputs without a defining equation, inputs that are written, references to
undeclared signals and malformed ``pre`` initial values.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.lang.ast import ProcessDefinition
from repro.lang.normalize import DelayEquation, NormalizedProcess, normalize


class ValidationError(Exception):
    """Raised when a process definition is statically ill-formed."""

    def __init__(self, issues: List[str]):
        super().__init__("; ".join(issues))
        self.issues = list(issues)


def collect_issues(process: NormalizedProcess) -> List[str]:
    """Return the list of static issues of a normalized process (possibly empty)."""
    issues: List[str] = []
    defined_by: Dict[str, int] = {}
    for equation in process.equations:
        target = equation.defined_signal()
        if target is not None:
            defined_by[target] = defined_by.get(target, 0) + 1

    for name, count in sorted(defined_by.items()):
        if count > 1:
            issues.append(f"signal {name!r} is defined by {count} equations")

    for name in process.inputs:
        if name in defined_by:
            issues.append(f"input signal {name!r} is defined inside the process")

    for name in process.outputs:
        if name not in defined_by:
            issues.append(f"output signal {name!r} has no defining equation")

    declared: Set[str] = set(process.inputs) | set(process.outputs) | set(process.locals)
    for equation in process.equations:
        for name in equation.signals():
            if name not in declared:
                issues.append(f"signal {name!r} is used but never declared")
                declared.add(name)

    for equation in process.equations:
        if isinstance(equation, DelayEquation) and not isinstance(
            equation.initial, (bool, int, float)
        ):
            issues.append(
                f"delay defining {equation.target!r} has non-constant initial value "
                f"{equation.initial!r}"
            )
    return issues


def validate_process(
    process: ProcessDefinition,
    registry: Optional[Mapping[str, ProcessDefinition]] = None,
) -> NormalizedProcess:
    """Normalize and validate a process definition.

    Returns the normalized process when it is well-formed, otherwise raises
    :class:`ValidationError` listing every issue found.
    """
    normalized = normalize(process, registry)
    issues = collect_issues(normalized)
    if issues:
        raise ValidationError(issues)
    return normalized
