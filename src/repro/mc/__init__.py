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

from repro import _lazy_exports

_EXPORTS = {
    "BooleanAbstraction": ".transition",
    "ReactionChoice": ".transition",
    "ReactionLTS": ".transition",
    "InvariantResult": ".onthefly",
    "LazyReactionLTS": ".onthefly",
    "OnTheFlyChecker": ".onthefly",
    "ProductLTS": ".onthefly",
    "SymbolicProductChecker": ".symbolic",
    "CompilationError": ".compiled",
    "CompiledAbstraction": ".compiled",
    "compilation_obstacles": ".compiled",
    "check_state_independent": ".invariants",
    "check_order_independent": ".invariants",
    "check_flow_independent": ".invariants",
    "check_weak_endochrony_invariants": ".invariants",
    "WeakEndochronyInvariantReport": ".invariants",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

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
