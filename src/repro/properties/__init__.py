"""Formal properties of Section 4 and the compositional design criterion.

Each submodule states, in its own docstring, which paper definition or
theorem it implements; the same map is kept in ``docs/architecture.md`` and
in the README feature table.

* :mod:`repro.properties.compilable` — the analysis pipeline and
  compilability (Definition 10, with Definitions 7 and 8);
* :mod:`repro.properties.endochrony` — hierarchic processes (Definition 11),
  the static endochrony criterion (Property 2) and the trace-based check of
  Definition 1;
* :mod:`repro.properties.weak_endochrony` — weak endochrony (Definition 2)
  over the reaction LTS, plus the model-checking formulation of Section 4.1;
* :mod:`repro.properties.nonblocking` — non-blocking processes (Definition 4);
* :mod:`repro.properties.isochrony` — isochrony (Definition 3) on bounded
  traces;
* :mod:`repro.properties.composition` — the *weakly hierarchic* criterion
  (Definition 12) and the Theorem 1 pipeline.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ProcessAnalysis": ".compilable",
    "verify_compilable": ".compilable",
    "verify_hierarchic": ".compilable",
    "check_endochrony_on_traces": ".endochrony",
    "verify_endochrony": ".endochrony",
    "EndochronyTraceReport": ".endochrony",
    "check_weak_endochrony": ".weak_endochrony",
    "verify_weak_endochrony": ".weak_endochrony",
    "WeakEndochronyReport": ".weak_endochrony",
    "verify_non_blocking": ".nonblocking",
    "check_isochrony": ".isochrony",
    "verify_isochrony": ".isochrony",
    "IsochronyReport": ".isochrony",
    "CompositionVerdict": ".composition",
    "check_weakly_hierarchic": ".composition",
    "verify_weakly_hierarchic": ".composition",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ProcessAnalysis",
    "verify_compilable",
    "verify_hierarchic",
    "check_endochrony_on_traces",
    "verify_endochrony",
    "EndochronyTraceReport",
    "check_weak_endochrony",
    "verify_weak_endochrony",
    "WeakEndochronyReport",
    "verify_non_blocking",
    "check_isochrony",
    "verify_isochrony",
    "IsochronyReport",
    "CompositionVerdict",
    "check_weakly_hierarchic",
    "verify_weakly_hierarchic",
]
