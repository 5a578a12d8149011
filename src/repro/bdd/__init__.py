"""Reduced Ordered Binary Decision Diagrams.

A small, dependency-free ROBDD engine used by the clock calculus (to decide
entailment between synchronization relations, ``R |= S``) and by the symbolic
model checker — the role Sigali plays in the Polychrony toolset.
"""

from repro.bdd.bdd import BDD, BDDManager

__all__ = ["BDD", "BDDManager"]
