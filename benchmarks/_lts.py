"""Fully explored reaction LTSs for the benchmarks.

Both helpers exhaust an :class:`~repro.mc.onthefly.OnTheFlyChecker`
(:meth:`~repro.mc.onthefly.OnTheFlyChecker.materialize`); they differ only
in the reaction source.  :func:`materialize` is the interpreter-backed
boolean abstraction, the "eager" side the lazy and compiled engines are
measured against; :func:`materialize_compiled` compiles the step relation
first (compile time included).
"""

from __future__ import annotations

from repro.mc.compiled import CompiledAbstraction
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker


def materialize(process, hierarchy=None, max_states=512):
    """The reaction LTS of the interpreter-backed abstraction."""
    return OnTheFlyChecker(LazyReactionLTS(process, hierarchy), max_states).materialize()


def materialize_compiled(process, max_states=512):
    """The reaction LTS of the compiled step relation."""
    abstraction = CompiledAbstraction(process)
    lazy = LazyReactionLTS(process, abstraction=abstraction)
    return OnTheFlyChecker(lazy, max_states).materialize()
