"""Scheduling graphs (Section 3.5).

The scheduling graph refines the clock hierarchy with the fine-grained order
in which signals and clocks must be computed within an instant.  This package
builds the graph from the inferred scheduling relations, reinforces it with
the constraints induced by clock calculation, decides acyclicity
(Definition 8) on its clock-labelled transitive closure and produces the
serialized schedules used by sequential code generation (Definition 9).
"""

from repro.sched.graph import SchedulingGraph, Edge
from repro.sched.reinforce import reinforce
from repro.sched.closure import is_acyclic, cyclic_nodes
from repro.sched.serialize import sequential_schedule, SerializationError

__all__ = [
    "SchedulingGraph",
    "Edge",
    "reinforce",
    "is_acyclic",
    "cyclic_nodes",
    "sequential_schedule",
    "SerializationError",
]
