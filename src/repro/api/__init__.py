"""``repro.api`` — the session facade of the library.

One entry point for the paper's whole pipeline::

    from repro.api import Design

    design = Design.from_source(source)        # or .from_builder(...), .add_component(...)
    verdict = design.verify("weak-endochrony") # static criterion, MC fallback
    deployment = design.compile("controlled")  # or sequential/concurrent/ltta
    flows = deployment.run(inputs)

* :mod:`repro.api.session` — the :class:`Design` session object and the
  :class:`AnalysisContext` that memoizes normalization, analyses and one
  shared BDD manager across components and repeated queries;
* :mod:`repro.api.artifacts` — the digest-keyed :class:`ArtifactGraph`
  every pipeline stage of a context resolves through (memory tier + the
  service's artifact store as persistent tier);
* :mod:`repro.api.results` — the uniform :class:`Verdict` / :class:`Diagnostic`
  result model;
* :mod:`repro.api.backends` — dispatch between the static criterion and the
  on-the-fly explicit / symbolic model checkers;
* :mod:`repro.api.parallel` — process-pool sharding behind
  ``Design.verify_many(parallel=N)``;
* :mod:`repro.api.deploy` — the four deployment schemes behind one
  :class:`Deployment` interface.

Submodules are loaded lazily (PEP 562) so that the property modules can
import :mod:`repro.api.results` without creating an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "Design": "repro.api.session",
    "AnalysisContext": "repro.api.session",
    "analyze": "repro.api.session",
    "ArtifactGraph": "repro.api.artifacts",
    "Verdict": "repro.api.results",
    "Diagnostic": "repro.api.results",
    "Cost": "repro.api.results",
    "verify": "repro.api.backends",
    "VerificationError": "repro.api.backends",
    "PROPERTIES": "repro.api.backends",
    "METHODS": "repro.api.backends",
    "Deployment": "repro.api.deploy",
    "DeploymentError": "repro.api.deploy",
    "SequentialDeployment": "repro.api.deploy",
    "ControlledDeployment": "repro.api.deploy",
    "ConcurrentDeployment": "repro.api.deploy",
    "LttaDeployment": "repro.api.deploy",
    "STRATEGIES": "repro.api.deploy",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.api.backends import METHODS, PROPERTIES, VerificationError, verify
    from repro.api.deploy import (
        STRATEGIES,
        ConcurrentDeployment,
        ControlledDeployment,
        Deployment,
        DeploymentError,
        LttaDeployment,
        SequentialDeployment,
    )
    from repro.api.artifacts import ArtifactGraph
    from repro.api.results import Cost, Diagnostic, Verdict
    from repro.api.session import AnalysisContext, Design, analyze


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
