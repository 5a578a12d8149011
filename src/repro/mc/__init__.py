"""Model-checking substrate (the role Sigali plays for Polychrony).

The paper checks weak endochrony by model checking three invariants over the
boolean abstraction of a Signal process (Section 4.1).  This package builds
that abstraction as a finite labelled transition system whose labels are
reactions (:mod:`repro.mc.transition`, or compiled to a step relation by
:mod:`repro.mc.compiled`), explores it with one explicit-state engine — on
the fly, with lazy product construction and early termination
(:mod:`repro.mc.onthefly`) — or symbolically with BDDs
(:mod:`repro.mc.symbolic`), and implements the ``StateIndependent``,
``OrderIndependent`` and ``FlowIndependent`` invariants used by Property 3
(:mod:`repro.mc.invariants`).
"""

from repro.mc.transition import BooleanAbstraction, ReactionChoice, ReactionLTS
from repro.mc.onthefly import InvariantResult, LazyReactionLTS, OnTheFlyChecker, ProductLTS
from repro.mc.symbolic import SymbolicProductChecker
from repro.mc.compiled import (
    CompilationError,
    CompiledAbstraction,
    compilation_obstacles,
)
from repro.mc.invariants import (
    check_state_independent,
    check_order_independent,
    check_flow_independent,
    check_weak_endochrony_invariants,
    WeakEndochronyInvariantReport,
)

__all__ = [
    "BooleanAbstraction",
    "ReactionChoice",
    "ReactionLTS",
    "InvariantResult",
    "LazyReactionLTS",
    "OnTheFlyChecker",
    "ProductLTS",
    "SymbolicProductChecker",
    "CompilationError",
    "CompiledAbstraction",
    "compilation_obstacles",
    "check_state_independent",
    "check_order_independent",
    "check_flow_independent",
    "check_weak_endochrony_invariants",
    "WeakEndochronyInvariantReport",
]
