"""The pluggable BDD-kernel protocol and backend registry.

Every engine in the repo — the compiled step relation
(:mod:`repro.mc.compiled`), the symbolic checkers (:mod:`repro.mc.symbolic`)
and the clock algebra (:mod:`repro.clocks.algebra`) — manipulates BDDs only
through manager methods, never through node internals.  That surface is the
:class:`BDDBackend` protocol; anything implementing it can sit under every
engine unchanged.

Two backends are registered:

``"reference"``
    :class:`~repro.bdd.bdd.BDDManager` — the pure-Python hash-consed
    manager.  It is the semantic ground truth: readable, dependency-free,
    and the oracle the differential suite compares everything against.

``"array"``
    :class:`~repro.bdd.array_backend.ArrayBackend` — packed numpy node
    arrays with an open-addressed unique table, a level-synchronized
    vectorized ``apply``/``restrict`` and a vectorized
    ``satisfy_matrix``.  Same answers, same enumeration order, same
    ``dump`` bytes; only the constant factor changes.  Requires numpy
    (the import is deferred until the backend is actually selected, so
    the reference backend keeps working on a numpy-less interpreter).

Selection precedence, resolved once per owning object (an
:class:`~repro.api.session.AnalysisContext`, a compiled abstraction, a
clock algebra): an explicit ``backend=`` argument wins, then the
``REPRO_BDD_BACKEND`` environment variable, then ``"reference"``.  The
environment hook is what lets CI rerun the whole differential matrix under
the array kernel without touching a single call site.
"""

from __future__ import annotations

import os
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

try:  # pragma: no cover - typing_extensions not required at runtime
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8 is unsupported anyway
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls


from repro.bdd.bdd import BDD, BDDManager

#: name of the environment variable consulted when no backend is passed
BACKEND_ENV = "REPRO_BDD_BACKEND"

#: the default backend when neither argument nor environment says otherwise
DEFAULT_BACKEND = "reference"


@runtime_checkable
class BDDBackend(Protocol):
    """What a BDD kernel must provide to sit under the verification engines.

    The protocol is the *manager* surface: node construction
    (``var``/``ite``/``apply``), cofactors and quantification (the
    relational product ``and_exists`` and its special cases), the
    non-constructive decisions (``leq``/``intersects``/``satisfy_one_and``,
    which answer questions about a conjunction without interning a node),
    the enumeration family (``satisfy_one``/``satisfy_all``/``satisfy_matrix``/
    ``count``), serialization (``dump``/``load``) and the maintenance hooks
    (``collect_garbage``/``reorder``/``sift``).  Handles stay the shared
    :class:`~repro.bdd.bdd.BDD` value type, which delegates every operation
    back to its manager — so a backend only ever implements manager
    methods, and engines never branch on the backend in use.

    Beyond the signatures, implementations owe four behavioural
    guarantees (enforced by ``tests/test_backend_differential.py``):

    * **semantics** — identical truth tables, counts and supports;
    * **non-construction** — ``leq``, ``intersects`` and
      ``satisfy_one_and`` leave ``size()`` unchanged; the reference
      implementation reads only the authoritative node lists, so the array
      kernel inherits it as is;
    * **enumeration order** — ``satisfy_all`` / ``satisfy_matrix`` yield
      assignments in the reference order (manager level order, ``False``
      branch before ``True``);
    * **canonical serialization** — ``dump`` emits the canonical
      depth-first postorder, so equal functions produce byte-identical
      payloads (and therefore equal artifact digests) on every backend.
    """

    backend_name: str

    # -- variables -----------------------------------------------------------
    def declare(self, name: str) -> int: ...

    def variables(self) -> Tuple[str, ...]: ...

    def level_name(self, level: int) -> str: ...

    def has_variable(self, name: str) -> bool: ...

    # -- node construction ---------------------------------------------------
    @property
    def true(self) -> BDD: ...

    @property
    def false(self) -> BDD: ...

    def var(self, name: str) -> BDD: ...

    def nvar(self, name: str) -> BDD: ...

    def constant(self, value: bool) -> BDD: ...

    def apply(self, operation: str, left: BDD, right: BDD) -> BDD: ...

    def negate(self, node: BDD) -> BDD: ...

    def ite(self, condition: BDD, then_branch: BDD, else_branch: BDD) -> BDD: ...

    # -- cofactors, quantification, substitution -----------------------------
    def restrict(self, node: BDD, assignment: Mapping[str, bool]) -> BDD: ...

    def and_exists(self, left: BDD, right: BDD, variables: Iterable[str]) -> BDD:
        """The relational product ∃variables.(left ∧ right), one memoized pass.

        The conjunction is never built; ``exists`` is ``and_exists`` with
        ``true`` and ``forall`` its dual, so a kernel owes one quantifier.
        """
        ...

    def exists(self, node: BDD, variables: Iterable[str]) -> BDD: ...

    def forall(self, node: BDD, variables: Iterable[str]) -> BDD: ...

    def compose(self, node: BDD, substitution: Mapping[str, BDD]) -> BDD: ...

    def rename(self, node: BDD, renaming: Mapping[str, str]) -> BDD:
        """Rename variables: one level-relabelling walk when the renaming
        keeps the support's level order, ``compose`` otherwise."""
        ...

    # -- non-constructive decisions --------------------------------------------
    def leq(self, left: BDD, right: BDD) -> bool:
        """``left ≤ right`` (``left → right`` is valid), stopping at the first
        counterexample; builds no node."""
        ...

    def intersects(self, left: BDD, right: BDD) -> bool:
        """``left ∧ right`` is satisfiable, stopping at the first witness;
        builds no node."""
        ...

    def satisfy_one_and(self, left: BDD, right: BDD) -> Optional[Dict[str, bool]]:
        """Exactly ``(left & right).satisfy_one()``; builds no node."""
        ...

    # -- queries -------------------------------------------------------------
    def support(self, node: BDD) -> FrozenSet[str]:
        """The variables the function depends on (memoized per node)."""
        ...

    def node_count(self, node: BDD) -> int: ...

    def satisfy_one(self, node: BDD) -> Optional[Dict[str, bool]]: ...

    def satisfy_all(
        self, node: BDD, variables: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, bool]]: ...

    def satisfy_matrix(self, node: BDD, variables: Sequence[str]) -> List[List[bool]]: ...

    def count(self, node: BDD, variables: Optional[Sequence[str]] = None) -> int: ...

    def evaluate(self, node: BDD, assignment: Mapping[str, bool]) -> bool: ...

    # -- serialization -------------------------------------------------------
    def dump(self, roots: Sequence[BDD]) -> Dict[str, object]: ...

    # -- maintenance ---------------------------------------------------------
    def clear_caches(self) -> None: ...

    def stats(self) -> Dict[str, int]: ...

    def collect_garbage(self, keep: Sequence[BDD]) -> List[BDD]: ...

    def reorder(self, order: Sequence[str], keep: Sequence[BDD]) -> List[BDD]: ...

    def sift(self, keep: Sequence[BDD], max_variables: Optional[int] = None) -> List[BDD]: ...


def _array_backend_class() -> Type[BDDManager]:
    from repro.bdd.array_backend import ArrayBackend

    return ArrayBackend


#: registry name -> lazy class loader (lazy so selecting "reference" never
#: pays the numpy import, and a numpy-less interpreter fails only on use)
_LOADERS = {
    "reference": lambda: BDDManager,
    "array": _array_backend_class,
}


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, default first."""
    return tuple(_LOADERS)


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name: explicit argument > environment > default.

    Raises ``ValueError`` on an unknown name — a typo in
    ``REPRO_BDD_BACKEND`` must fail loudly, not silently fall back to the
    slow reference kernel.
    """
    name = backend or os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    if name not in _LOADERS:
        raise ValueError(
            f"unknown BDD backend {name!r}; available: {', '.join(_LOADERS)}"
        )
    return name


def backend_class(backend: Optional[str] = None) -> Type[BDDManager]:
    """The manager class implementing the resolved backend."""
    return _LOADERS[resolve_backend(backend)]()


def create_manager(
    variables: Iterable[str] = (),
    backend: Optional[str] = None,
    **options,
) -> BDDManager:
    """A fresh manager of the resolved backend (the one constructor to use)."""
    return backend_class(backend)(variables, **options)


def load_manager(
    payload: Mapping[str, object], backend: Optional[str] = None
) -> Tuple[BDDManager, List[BDD]]:
    """Rebuild a dumped manager under the resolved backend.

    Payloads are backend-neutral (canonical node triples), so a relation
    dumped by the reference kernel loads straight into the array kernel and
    vice versa — warm :class:`~repro.service.store.ArtifactStore` relations
    stay valid when a deployment flips backends.
    """
    return backend_class(backend).load(payload)
