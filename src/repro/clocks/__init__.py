"""Clock calculus: inference, algebra, hierarchy and disjunctive form.

This package reproduces Section 3 of the paper: the inference system that
associates a process with its timing relations (clock equations and
scheduling relations), the boolean algebra in which entailment ``R |= S`` is
decided (via BDDs), the clock hierarchy of Definition 5 with its
well-formedness condition (Definition 6), and the disjunctive-form
transformation of Section 3.4 that eliminates symmetric differences
(Definition 7, "well-clocked" processes).
"""

from repro import _lazy_exports

_EXPORTS = {
    "clock_key": ".expressions",
    "clock_signals": ".expressions",
    "format_clock_expression": ".expressions",
    "iter_subclocks": ".expressions",
    "simplify_clock": ".expressions",
    "Node": ".relations",
    "signal_node": ".relations",
    "clock_node": ".relations",
    "ClockRelation": ".relations",
    "SchedulingRelation": ".relations",
    "TimingRelations": ".relations",
    "infer_timing_relations": ".inference",
    "ClockAlgebra": ".algebra",
    "ClockHierarchy": ".hierarchy",
    "build_hierarchy": ".hierarchy",
    "DisjunctiveFormResult": ".disjunctive",
    "to_disjunctive_form": ".disjunctive",
    "is_well_clocked": ".disjunctive",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "clock_key",
    "clock_signals",
    "format_clock_expression",
    "iter_subclocks",
    "simplify_clock",
    "Node",
    "signal_node",
    "clock_node",
    "ClockRelation",
    "SchedulingRelation",
    "TimingRelations",
    "infer_timing_relations",
    "ClockAlgebra",
    "ClockHierarchy",
    "build_hierarchy",
    "DisjunctiveFormResult",
    "to_disjunctive_form",
    "is_well_clocked",
]
