"""Verification backends: one ``verify(design, prop, method)`` dispatcher.

The paper offers two routes to the same guarantees: the *static* route (the
clock calculus — compilability, hierarchies, and the weakly hierarchic
criterion of Definition 12, whose Theorem 1 yields weak endochrony,
non-blocking and isochrony without exploring any state space) and the
*model-checking* route (the reaction LTS of the boolean abstraction, either
checked directly against Definition 2 or through the invariant formulation
of Section 4.1 that the paper targets at Sigali).

``method="auto"`` encodes the paper's preference: try the static criterion
first; only when it does not conclude (e.g. a non-hierarchic component) fall
back to model checking, and say so in the verdict's diagnostics.

The model-checking fallback runs on the **compiled** reaction engine by
default (:mod:`repro.mc.compiled`: per-state reactions solved from a BDD
step relation instead of guessed through the interpreter), falling back per
component to the interpreter-backed enumeration outside the compiled
fragment.  ``method="compiled"`` requests that engine explicitly;
``method="explicit"`` opts out of compilation and forces the historical
interpreter-backed enumeration.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict

from repro.api.results import Cost, Diagnostic, Verdict, stopwatch
from repro.mc.onthefly import OnTheFlyChecker, ProductLTS
from repro.properties.compilable import verify_compilable, verify_hierarchic
from repro.properties.composition import verify_weakly_hierarchic
from repro.properties.nonblocking import verify_non_blocking
from repro.properties.weak_endochrony import verify_weak_endochrony

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Design
    from repro.mc.symbolic import SymbolicProductChecker

PROPERTIES = (
    "compilable",
    "hierarchic",
    "endochrony",
    "weak-endochrony",
    "non-blocking",
    "isochrony",
    "weakly-hierarchic",
)

METHODS = ("auto", "static", "explicit", "compiled", "symbolic")

_ALIASES = {
    "weak_endochrony": "weak-endochrony",
    "weakly_endochronous": "weak-endochrony",
    "weakly-endochronous": "weak-endochrony",
    "non_blocking": "non-blocking",
    "nonblocking": "non-blocking",
    "deadlock-free": "non-blocking",
    "endochronous": "endochrony",
    "isochronous": "isochrony",
    "weakly_hierarchic": "weakly-hierarchic",
    "composition": "weakly-hierarchic",
    "criterion": "weakly-hierarchic",
}


class VerificationError(ValueError):
    """Raised for unknown properties, unsupported methods or missing options."""


def canonical_property(prop: str) -> str:
    """Resolve alias spellings ('nonblocking', 'weak_endochrony', ...) to the
    canonical property name; unknown names raise :class:`VerificationError`."""
    prop = _ALIASES.get(prop, prop)
    if prop not in PROPERTIES:
        raise VerificationError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    return prop


def _static_weakly_hierarchic(design: "Design") -> Verdict:
    verdict = verify_weakly_hierarchic(
        design.components, design.composition, context=design.context
    )
    # reuse the design's cached CompositionVerdict for follow-up queries
    design._criterion = verdict.report
    return verdict


#: Theorem 1's corollaries of the weakly hierarchic criterion, each with
#: the note its static verdict opens with
_COROLLARIES = {
    "weak-endochrony": "weakly hierarchic ⇒ weakly endochronous (Theorem 1)",
    "non-blocking": "weakly hierarchic ⇒ non-blocking (Definition 12)",
    "isochrony": "weakly hierarchic ⇒ components isochronous (Theorem 1)",
}


def _theorem1(design: "Design", prop: str) -> Verdict:
    """The criterion's verdict, presented as evidence for the corollary ``prop``."""
    verdict = _static_weakly_hierarchic(design)
    return Verdict(
        prop=prop,
        subject=verdict.subject,
        holds=verdict.holds,
        method=verdict.method,
        diagnostics=[Diagnostic(_COROLLARIES[prop], verdict.holds)]
        + list(verdict.diagnostics),
        cost=verdict.cost,
        report=verdict.report,
    )


def _label_compiled(verdict: Verdict, checker: OnTheFlyChecker, requested: bool) -> None:
    """Report the engine that actually ran a ``engine="compiled"`` query.

    When every component fell back to the interpreter the verdict keeps
    ``method="explicit"``; if the caller *explicitly* asked for the compiled
    engine, the fallback is additionally recorded as a diagnostic (mirroring
    the ``auto`` fallback note) instead of failing — the engines decide the
    same properties on the same states.
    """
    if checker.uses_compiled():
        verdict.method = "compiled"
    elif requested:
        verdict.diagnostics.insert(
            0,
            Diagnostic(
                "process is outside the compiled fragment (boolean values "
                "derived from numeric data) — the interpreter-backed engine "
                "answered instead",
                True,
            ),
        )


def _engine(
    design: "Design", max_states: int, engine: str = "compiled"
) -> OnTheFlyChecker:
    """The design's on-the-fly engine: a lazy product of the components.

    ``engine="compiled"`` (the default) serves per-component reactions from
    compiled step relations where available; ``engine="interpreter"`` is the
    ``method="explicit"`` opt-out.  Falls back to a lazy view of the
    composed process when the components cannot form a product (shared
    register names after composition by name-matching is the only such
    case).
    """
    components = design.components
    if len(components) >= 2:
        try:
            return design.context.onthefly(
                list(components),
                max_states,
                name=design.composition.name,
                types=design.composition.types,
                engine=engine,
            )
        except ValueError:
            pass
    return design.context.onthefly([design.composition], max_states, engine=engine)


def _symbolic_checker(design: "Design", max_states: int) -> "SymbolicProductChecker":
    """The design's symbolic checker, on the session's shared manager.

    For a multi-component design the product transition relation is the
    conjunction of the per-component relations over the same (re-typed)
    abstractions the lazy product joins, so the two engines agree on the
    product semantics and the composed state space is never enumerated.
    A single component, or components that cannot form a product (shared
    registers, a signal two components define, a truncated component), is
    a product of one over the composed process.
    """
    # the symbolic engine loads only for the queries that ask for it
    from repro.mc.symbolic import SymbolicProductChecker

    context = design.context
    if len(design.components) >= 2:
        engine = _engine(design, max_states)
        if isinstance(engine.lazy, ProductLTS):
            components = engine.lazy.abstracted
            try:
                return SymbolicProductChecker(
                    [context.lts(component, max_states) for component in components],
                    manager=context.manager,
                    components=components,
                )
            except ValueError:
                pass
    return SymbolicProductChecker(
        [context.lts(design.composition, max_states)],
        manager=context.manager,
        components=[design.composition],
    )


def _explored(
    design: "Design", prop: str, max_states: int, engine: str, requested: bool
) -> Verdict:
    """Weak endochrony or non-blocking decided on the on-the-fly engine.

    Weak endochrony checks the Definition 2 axioms, non-blocking searches
    the frontier for a deadlock; both expand the lazy product only as they
    visit states and stop at the first violation.  ``engine="compiled"``
    serves per-component reactions from compiled step relations,
    ``"interpreter"`` is the ``method="explicit"`` opt-out.  No composition
    analysis is passed: neither check consults it, so a warm-store query
    stays free of analysis work.  ``requested`` says the caller asked for
    the compiled engine by name (see :func:`_label_compiled`).
    """
    checker = _engine(design, max_states, engine)
    if prop == "weak-endochrony":
        verdict = verify_weak_endochrony(
            design.composition, checker=checker, method="explicit", max_states=max_states
        )
    else:
        verdict = verify_non_blocking(design.composition, checker=checker, max_states=max_states)
    # report the engine that actually ran: a design outside the compiled
    # fragment fell back to the interpreter enumeration
    if engine == "compiled":
        _label_compiled(verdict, checker, requested)
    return verdict


def _symbolic_weak_endochrony(design: "Design", max_states: int) -> Verdict:
    """The invariants of Section 4.1, cross-checked by BDD reachability.

    The invariants visit only the states their root pairs need, so the
    engine first explores the rest, and the query's cost counts that sweep
    as the explicit axioms count theirs.  A product is left alone when its
    check stopped at a violation (exploring the rest of the product is the
    work the early stop saved); a product cut by the bound gets no
    reachability diagnostic (the product relation has no bound to match).
    """
    engine = _engine(design, max_states)
    verdict = verify_weak_endochrony(
        design.composition,
        analysis=design.analysis,
        checker=engine,
        method="symbolic",
        max_states=max_states,
    )
    product = isinstance(engine.lazy, ProductLTS)
    if product and not verdict.holds:
        return verdict
    states = transitions = 0
    for state in engine.iter_states():
        states += 1
        transitions += len(engine.transitions_from(state))
    if states > verdict.cost.states:
        verdict.cost = replace(verdict.cost, states=states, transitions=transitions)
    if product and engine.truncated:
        return verdict
    checker = _symbolic_checker(design, max_states)
    reachable = checker.reachable_count()
    verdict.diagnostics.append(
        Diagnostic(
            "symbolic reachability agrees with exploration",
            reachable == engine.states_discovered,
            f"{reachable} reachable states (BDD)",
        )
    )
    verdict.cost = Cost(
        seconds=verdict.cost.seconds,
        states=verdict.cost.states,
        transitions=verdict.cost.transitions,
        state_bound=verdict.cost.state_bound,
        bdd_nodes=checker.bdd_nodes(),
        components=len(design.components),
    )
    return verdict


def _symbolic_non_blocking(design: "Design", max_states: int) -> Verdict:
    """Definition 4 decided on BDDs: no reachable state without a successor."""
    with stopwatch() as elapsed:
        checker = _symbolic_checker(design, max_states)
        result = checker.is_non_blocking()
        states = checker.reachable_count()
        nodes = checker.bdd_nodes()
    return Verdict(
        prop="non-blocking",
        subject=design.composition.name,
        holds=result.holds,
        method="symbolic",
        diagnostics=[
            Diagnostic(
                "no reachable deadlock state (Definition 4, product relation)",
                result.holds,
                result.counterexample or f"{states} reachable states (BDD)",
            )
        ],
        cost=Cost(
            seconds=elapsed[0],
            components=len(design.components),
            bdd_nodes=nodes,
            state_bound=max_states,
        ),
        report=result,
    )


def _explicit_isochrony(design: "Design", options: Dict[str, object]) -> Verdict:
    """Synchronous against asynchronous flows of two components on bounded traces."""
    if len(design.components) != 2:
        raise VerificationError(
            "isochrony with method='explicit' compares the synchronous and "
            "asynchronous compositions of exactly two components"
        )
    input_flows = options.get("input_flows")
    if input_flows is None:
        raise VerificationError(
            "isochrony with method='explicit' needs input_flows={signal: [values...]}"
        )
    from repro.properties.isochrony import verify_isochrony

    left, right = design.components
    return verify_isochrony(
        left,
        right,
        input_flows,
        max_instants=int(options.get("max_instants", 8)),
    )


def verify(design: "Design", prop: str, method: str = "auto", **options) -> Verdict:
    """Check ``prop`` on ``design`` with ``method``; every answer is a Verdict.

    Supported properties: ``compilable``, ``hierarchic``, ``endochrony``,
    ``weak-endochrony``, ``non-blocking``, ``isochrony``,
    ``weakly-hierarchic``.  Options: ``max_states`` bounds the LTS
    exploration; ``input_flows`` feeds the bounded-trace checks
    (``endochrony`` explicit, ``isochrony``); ``max_instants`` bounds them.
    """
    prop = canonical_property(prop)
    if method not in METHODS:
        raise VerificationError(f"unknown method {method!r}; expected one of {METHODS}")
    max_states = int(options.get("max_states", 512))

    if prop == "compilable":
        _require_static(prop, method)
        return verify_compilable(design.analysis)

    if prop == "hierarchic":
        _require_static(prop, method)
        return verify_hierarchic(design.analysis)

    if prop == "weakly-hierarchic":
        _require_static(prop, method)
        return _static_weakly_hierarchic(design)

    if prop == "endochrony":
        # the trace semantics behind Definition 1 loads only for this property
        from repro.properties.endochrony import check_endochrony_on_traces, verify_endochrony

        if method in ("auto", "static"):
            return verify_endochrony(design.composition, design.analysis)
        if method == "explicit":
            input_flows = options.get("input_flows")
            if input_flows is None:
                raise VerificationError(
                    "endochrony with method='explicit' checks Definition 1 on bounded "
                    "traces and needs input_flows={signal: [values...]}"
                )
            with stopwatch() as elapsed:
                report = check_endochrony_on_traces(
                    design.composition,
                    input_flows,
                    max_instants=int(options.get("max_instants", 8)),
                )
            return Verdict(
                prop="endochrony",
                subject=design.composition.name,
                holds=report.holds,
                method="explicit",
                diagnostics=[
                    Diagnostic(
                        "flow-equivalent inputs give clock-equivalent behaviors "
                        "(Definition 1)",
                        report.holds,
                        f"{report.behaviors_compared} behavior pairs compared",
                        witness=report.counterexample,
                    )
                ],
                cost=Cost(seconds=elapsed[0]),
                report=report,
            )
        raise VerificationError("endochrony supports methods auto/static/explicit")

    # Theorem 1's corollaries: weak-endochrony, non-blocking, isochrony
    if method == "static":
        return _theorem1(design, prop)
    if method == "auto":
        # the paper's preference: keep the static answer when it concludes
        static_verdict = _theorem1(design, prop)
        if static_verdict.holds:
            return static_verdict
        if prop == "isochrony" and (
            len(design.components) != 2 or "input_flows" not in options
        ):
            # The criterion is sufficient, not necessary: say "not proven",
            # don't let the verdict read as a disproof.
            static_verdict.diagnostics.insert(
                0,
                Diagnostic(
                    "static criterion inconclusive (Definition 12 not met) — isochrony is "
                    "NOT disproved; pass input_flows on a two-component design for the "
                    "explicit bounded check",
                    True,
                ),
            )
            return static_verdict
    if prop == "isochrony":
        if method in ("symbolic", "compiled"):
            raise VerificationError(f"isochrony has no {method} backend; use static or explicit")
        verdict = _explicit_isochrony(design, options)
    elif method == "symbolic" and prop == "weak-endochrony":
        verdict = _symbolic_weak_endochrony(design, max_states)
    elif method == "symbolic":
        verdict = _symbolic_non_blocking(design, max_states)
    else:
        engine = "interpreter" if method == "explicit" else "compiled"
        verdict = _explored(design, prop, max_states, engine, requested=method == "compiled")
    if method == "auto":
        verdict.diagnostics.insert(
            0,
            Diagnostic(
                "static criterion inconclusive (Definition 12 not met) — "
                f"fell back to {verdict.method} model checking",
                True,
            ),
        )
    return verdict


def _require_static(prop: str, method: str) -> None:
    if method not in ("auto", "static"):
        raise VerificationError(f"{prop} is decided by the clock calculus; use method='static'")
