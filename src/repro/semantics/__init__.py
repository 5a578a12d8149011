"""Executable semantics of normalized Signal processes.

Two complementary views are provided:

* :mod:`repro.semantics.interpreter` — an operational, instant-by-instant
  constraint solver that computes one reaction at a time (used for
  simulation, as an oracle for generated code, and to build traces);
* :mod:`repro.semantics.denotational` — bounded enumeration of the behaviors
  of a process for given input flows, yielding the finite
  :class:`~repro.mocc.processes.DenotationalProcess` objects on which the
  equivalences and properties of the paper are checked.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ABSENT": ".interpreter",
    "TICK": ".interpreter",
    "ClockError": ".interpreter",
    "UnderdeterminedError": ".interpreter",
    "SignalInterpreter": ".interpreter",
    "InstantResult": ".interpreter",
    "FlowEnvironment": ".environment",
    "ReactiveEnvironment": ".environment",
    "enumerate_behaviors": ".denotational",
    "behavior_from_run": ".denotational",
    "run_to_completion": ".denotational",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ABSENT",
    "TICK",
    "ClockError",
    "UnderdeterminedError",
    "SignalInterpreter",
    "InstantResult",
    "FlowEnvironment",
    "ReactiveEnvironment",
    "enumerate_behaviors",
    "behavior_from_run",
    "run_to_completion",
]
