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

from repro.lang.ast import ProcessDefinition
from repro.lang.builder import (
    ProcessBuilder,
    SignalExpr,
    const,
    signal,
    tick,
    when_false,
    when_true,
)
from repro.lang.normalize import NormalizedProcess, normalize
from repro.lang.parser import parse_process, parse_program
from repro.lang.printer import format_normalized_process, format_process
from repro.lang.validate import ValidationError, validate_process
from repro.semantics.interpreter import ABSENT, TICK, SignalInterpreter

# -- the session facade (primary API) -----------------------------------------
from repro.api.results import Cost, Diagnostic, Verdict
from repro.api.session import AnalysisContext, Design, analyze
from repro.api.backends import VerificationError
from repro.api.deploy import Deployment, DeploymentError

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

