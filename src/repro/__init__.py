"""repro — compositional design of isochronous systems.

A Python reproduction of "Compositional design of isochronous systems"
(Talpin, Ouy, Besnard, Le Guernic — DATE 2008 / INRIA RR-6227): the Signal
language and its polychronous model of computation, the clock calculus of
Polychrony (clock hierarchy, disjunctive form, scheduling graph), the formal
properties of the paper (endochrony, weak endochrony, isochrony,
non-blocking), the static *weakly hierarchic* compositional criterion of
Definition 12 / Theorem 1, and the sequential, controlled and concurrent code
generation schemes of Sections 3.6 and 5.

The primary public API is the :class:`Design` session facade of
:mod:`repro.api` — one entry point for the paper's whole pipeline
(analyze → verify → compile → deploy), with every analysis artefact shared
and memoized across components and queries::

    from repro import Design, signal, const

    design = Design.from_source(
        '''
        process filter (y) returns (x) {
          local z;
          x := true when (y /= z);
          z := y pre true;
        }
        '''
    )
    assert design.verify("endochrony")            # Verdict, truthy when it holds
    assert design.verify("weak-endochrony")       # static criterion (Theorem 1)
    deployment = design.compile("sequential")     # Section 3.6 step function
    flows = deployment.run({"y": [True, False, False, True]})
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def _lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each re-exported name to the module that defines it
    (absolute, or relative to ``package``); the module is imported on the
    first access of one of its names, and the name is then bound on the
    package so later accesses are plain attribute reads.  Every package of
    the library re-exports this way, so importing a package never loads a
    layer the caller does not use.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


_EXPORTS = {
    # the session facade (primary API)
    "Design": ".api.session",
    "AnalysisContext": ".api.session",
    "analyze": ".api.session",
    "Verdict": ".api.results",
    "Diagnostic": ".api.results",
    "Cost": ".api.results",
    "VerificationError": ".api.backends",
    "Deployment": ".api.deploy",
    "DeploymentError": ".api.deploy",
    # language layer
    "ProcessDefinition": ".lang.ast",
    "ProcessBuilder": ".lang.builder",
    "SignalExpr": ".lang.builder",
    "const": ".lang.builder",
    "signal": ".lang.builder",
    "tick": ".lang.builder",
    "when_false": ".lang.builder",
    "when_true": ".lang.builder",
    "NormalizedProcess": ".lang.normalize",
    "normalize": ".lang.normalize",
    "parse_process": ".lang.parser",
    "parse_program": ".lang.parser",
    "format_normalized_process": ".lang.printer",
    "format_process": ".lang.printer",
    "ValidationError": ".lang.validate",
    "validate_process": ".lang.validate",
    # semantics
    "ABSENT": ".semantics.interpreter",
    "TICK": ".semantics.interpreter",
    "SignalInterpreter": ".semantics.interpreter",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__version__ = "1.1.0"

__all__ = [
    # session facade
    "Design",
    "AnalysisContext",
    "Verdict",
    "Diagnostic",
    "Cost",
    "Deployment",
    "DeploymentError",
    "VerificationError",
    "analyze",
    # language layer
    "ProcessBuilder",
    "SignalExpr",
    "signal",
    "const",
    "tick",
    "when_true",
    "when_false",
    "ProcessDefinition",
    "NormalizedProcess",
    "normalize",
    "parse_process",
    "parse_program",
    "format_process",
    "format_normalized_process",
    "validate_process",
    "ValidationError",
    # semantics
    "ABSENT",
    "TICK",
    "SignalInterpreter",
]

