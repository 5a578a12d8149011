"""The uniform result model of the :mod:`repro.api` facade.

Every verification entry point of the facade returns a :class:`Verdict`: one
boolean outcome plus the structured evidence behind it — which property was
checked, on what subject, by which method, the per-check
:class:`Diagnostic` items (with witnesses / counterexamples when the
underlying checker produced one) and the :class:`Cost` of obtaining the
answer.  The property modules' ``verify_*`` functions all produce one.

A Verdict is truthy exactly when the property holds, so existing
``assert``-style call sites keep reading naturally::

    verdict = design.verify("weak-endochrony")
    assert verdict                      # truthiness == verdict.holds
    for diagnostic in verdict.failures():
        print(diagnostic.name, diagnostic.detail)
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional


def _json_safe(value: object) -> object:
    """``value`` if it survives ``json.dumps`` unchanged, else its ``repr``.

    Witnesses can be arbitrary checker objects (reaction pairs, states,
    behaviors); a JSON-able verdict keeps the primitive ones and stringifies
    the rest.  This is the one encoding of a verdict that leaves its
    process: over the socket, into the artifact store and back from a
    process-pool worker (``Design.verify_many(parallel=N)`` included).
    """
    if value is None:
        return None
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


@dataclass(frozen=True)
class Diagnostic:
    """One elementary check inside a verdict (an axiom, a definition clause...).

    ``witness`` carries the structured witness or counterexample produced by
    the underlying checker, when there is one — a reaction pair for the weak
    endochrony axioms, a deadlocked state for non-blocking, a behavior pair
    for the trace checks.
    """

    name: str
    holds: bool
    detail: str = ""
    witness: Optional[object] = None

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        status = "holds" if self.holds else "FAILS"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.name}: {status}{suffix}"

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary; non-JSON witnesses become their ``repr``."""
        return {
            "name": self.name,
            "holds": self.holds,
            "detail": self.detail,
            "witness": _json_safe(self.witness),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Diagnostic":
        return cls(
            name=str(payload["name"]),
            holds=bool(payload["holds"]),
            detail=str(payload.get("detail", "")),
            witness=payload.get("witness"),
        )


@dataclass(frozen=True)
class Cost:
    """What it took to decide a property — the paper's static-vs-MC argument.

    Field semantics (each documented in :doc:`docs/api.md` as well):

    * ``seconds`` — wall-clock time of the verification step;
    * ``states`` — the states the query actually *visited* (successor sets
      computed on demand, or served from the session engine's memo).  Zero
      for the purely static criterion — the whole point of Theorem 1 — and
      zero for symbolic non-blocking, which never touches explicit states
      (its footprint is ``bdd_nodes``); symbolic weak endochrony counts the
      explicit sweep of its reachability cross-check;
    * ``transitions`` — the transitions enumerated over the visited states;
    * ``state_bound`` — the exploration budget (``max_states``) the query ran
      under, when one applied.  ``states < state_bound`` on a conclusive
      on-the-fly verdict is the early-termination win: the engine answered
      without filling its budget;
    * ``bdd_nodes`` — for symbolic runs, the BDD nodes of the encoded model
      (transition relation plus reachable set) instead of a misleading
      ``0 states``;
    * ``components`` — the per-component analyses a compositional check ran;
    * ``stages`` — present only when the query ran with tracing enabled: the
      per-stage compute *self*-time breakdown (seconds) collected by the
      artifact graph while this verdict was computed.  ``None`` (and absent
      from :meth:`to_dict`) otherwise, so untraced verdicts stay
      byte-identical to earlier releases; excluded from equality so traced
      and untraced verdicts of the same query still compare equal.
    """

    seconds: float = 0.0
    states: int = 0
    transitions: int = 0
    components: int = 0
    state_bound: int = 0
    bdd_nodes: int = 0
    stages: Optional[Dict[str, float]] = field(default=None, compare=False)

    def __str__(self) -> str:
        parts = [f"{self.seconds * 1000:.1f} ms"]
        if self.states:
            visited = f"{self.states} states visited"
            if self.state_bound:
                visited += f" / bound {self.state_bound}"
            parts.append(visited)
        elif self.state_bound:
            parts.append(f"0 states visited / bound {self.state_bound}")
        if self.transitions:
            parts.append(f"{self.transitions} transitions")
        if self.bdd_nodes:
            parts.append(f"{self.bdd_nodes} BDD nodes")
        if self.components:
            parts.append(f"{self.components} components")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary with every cost field, zeroes included.

        ``stages`` appears only when a breakdown was collected, keeping
        untraced verdict payloads identical to earlier releases.
        """
        payload: Dict[str, object] = {
            "seconds": self.seconds,
            "states": self.states,
            "transitions": self.transitions,
            "components": self.components,
            "state_bound": self.state_bound,
            "bdd_nodes": self.bdd_nodes,
        }
        if self.stages is not None:
            payload["stages"] = dict(self.stages)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Cost":
        stages = payload.get("stages")
        return cls(
            seconds=float(payload.get("seconds", 0.0)),
            states=int(payload.get("states", 0)),
            transitions=int(payload.get("transitions", 0)),
            components=int(payload.get("components", 0)),
            state_bound=int(payload.get("state_bound", 0)),
            bdd_nodes=int(payload.get("bdd_nodes", 0)),
            stages=dict(stages) if stages else None,
        )


@dataclass
class Verdict:
    """The uniform outcome of one property verification.

    ``prop`` is the property name (``"endochrony"``, ``"weak-endochrony"``,
    ``"non-blocking"``, ...), ``subject`` the process or design it was checked
    on, ``method`` how it was decided (``"static"``, ``"explicit"``,
    ``"symbolic"`` or ``"trace"``), and ``report`` the underlying report
    object of the property module, kept for callers that need the full
    detail (e.g. the :class:`~repro.properties.composition.CompositionVerdict`
    with its reported clock constraints).
    """

    prop: str
    subject: str
    holds: bool
    method: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    cost: Cost = field(default_factory=Cost)
    report: Optional[object] = None

    def __bool__(self) -> bool:
        return self.holds

    def failures(self) -> List[Diagnostic]:
        return [diagnostic for diagnostic in self.diagnostics if not diagnostic.holds]

    def witness(self) -> Optional[object]:
        """The witness of the first failing diagnostic, if any."""
        for diagnostic in self.diagnostics:
            if not diagnostic.holds and diagnostic.witness is not None:
                return diagnostic.witness
        return None

    def __str__(self) -> str:
        status = "HOLDS" if self.holds else "FAILS"
        lines = [f"{self.prop} on {self.subject}: {status} [{self.method}, {self.cost}]"]
        lines.extend(f"  {diagnostic}" for diagnostic in self.diagnostics)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary of the verdict.

        The ``report`` payload (which can hold a whole analysis and its BDD
        manager) is dropped — exactly as when a verdict crosses a process
        boundary; everything else round-trips through :meth:`from_dict`.
        This is the wire format of the verification service.
        """
        return {
            "prop": self.prop,
            "subject": self.subject,
            "holds": self.holds,
            "method": self.method,
            "diagnostics": [diagnostic.to_dict() for diagnostic in self.diagnostics],
            "cost": self.cost.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Verdict":
        return cls(
            prop=str(payload["prop"]),
            subject=str(payload["subject"]),
            holds=bool(payload["holds"]),
            method=str(payload["method"]),
            diagnostics=[
                Diagnostic.from_dict(item) for item in payload.get("diagnostics", ())
            ],
            cost=Cost.from_dict(payload.get("cost", {})),
            report=None,
        )


@contextmanager
def stopwatch() -> Iterator[List[float]]:
    """Measure a verification step; the elapsed seconds land in the yielded cell."""
    cell = [0.0]
    start = time.perf_counter()
    try:
        yield cell
    finally:
        cell[0] = time.perf_counter() - start


def diagnostics_from_invariants(results: Iterable[object]) -> List[Diagnostic]:
    """Convert :class:`~repro.mc.onthefly.InvariantResult` items to diagnostics."""
    diagnostics: List[Diagnostic] = []
    for result in results:
        counterexample = getattr(result, "counterexample", None)
        diagnostics.append(
            Diagnostic(
                name=result.name,
                holds=result.holds,
                detail=counterexample or "",
                witness=counterexample,
            )
        )
    return diagnostics
