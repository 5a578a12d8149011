"""Scheduling graphs (Section 3.5).

The scheduling graph refines the clock hierarchy with the fine-grained order
in which signals and clocks must be computed within an instant.  This package
builds the graph from the inferred scheduling relations, reinforces it with
the constraints induced by clock calculation, decides acyclicity
(Definition 8) on its clock-labelled transitive closure and produces the
serialized schedules used by sequential code generation (Definition 9).
"""

from repro import _lazy_exports

# bound eagerly: the function shares its name with its submodule, which the
# import system binds on this package whenever anything imports
# ``repro.sched.reinforce`` — a lazy export would be shadowed by the module
from repro.sched.reinforce import reinforce

_EXPORTS = {
    "SchedulingGraph": ".graph",
    "Edge": ".graph",
    "is_acyclic": ".closure",
    "cyclic_nodes": ".closure",
    "sequential_schedule": ".serialize",
    "SerializationError": ".serialize",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "SchedulingGraph",
    "Edge",
    "reinforce",
    "is_acyclic",
    "cyclic_nodes",
    "sequential_schedule",
    "SerializationError",
]
