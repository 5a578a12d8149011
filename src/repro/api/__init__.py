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

The names above are exported lazily through the package-wide PEP 562 helper
(:func:`repro._lazy_exports`): importing :mod:`repro.api` loads no
submodule, so the property modules can import :mod:`repro.api.results`
without creating an import cycle, and a verification query never loads
:mod:`repro.api.deploy` and the code generators behind it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import _lazy_exports

_EXPORTS = {
    "Design": ".session",
    "AnalysisContext": ".session",
    "analyze": ".session",
    "ArtifactGraph": ".artifacts",
    "Verdict": ".results",
    "Diagnostic": ".results",
    "Cost": ".results",
    "verify": ".backends",
    "VerificationError": ".backends",
    "PROPERTIES": ".backends",
    "METHODS": ".backends",
    "Deployment": ".deploy",
    "DeploymentError": ".deploy",
    "SequentialDeployment": ".deploy",
    "ControlledDeployment": ".deploy",
    "ConcurrentDeployment": ".deploy",
    "LttaDeployment": ".deploy",
    "STRATEGIES": ".deploy",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

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
