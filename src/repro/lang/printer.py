"""Pretty printing of Signal expressions, statements and processes.

The output uses the ASCII rendering of Signal operators (``^`` for clocks,
``^*`` / ``^+`` / ``^-`` for clock conjunction / disjunction / difference,
``[x]`` and ``[not x]`` for value-sampled clocks) so that printed processes
can be re-parsed by :mod:`repro.lang.parser`.

Besides the re-parseable rendering, this module defines the **canonical
form** used to content-address designs (:func:`format_canonical` /
:func:`canonical_digest`): a deterministic text rendering of a
:class:`~repro.lang.normalize.NormalizedProcess` with stable signal
ordering, stable equation ordering and α-renamed locals, so that two
processes with the same primitive semantics print — and therefore hash — to
the same bytes regardless of how they were built (source text, builder,
printed-and-reparsed source).  The digest is what the service layer's
design registry and artifact store key on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.lang.ast import (
    BinaryOp,
    Cell,
    ClockBinary,
    ClockConstraint,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
    Composition,
    Const,
    Default,
    Definition,
    Expression,
    Instantiation,
    Pre,
    ProcessDefinition,
    Ref,
    Restriction,
    Statement,
    UnaryOp,
    When,
)
from repro.lang.normalize import (
    ClockEquation,
    DelayEquation,
    FunctionEquation,
    MergeEquation,
    NormalizedProcess,
    PrimitiveEquation,
    SamplingEquation,
    rename_equation,
)


def format_constant(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def format_expression(expression: Expression) -> str:
    """Render a signal expression as Signal-like concrete syntax."""
    if isinstance(expression, Const):
        return format_constant(expression.value)
    if isinstance(expression, Ref):
        return expression.name
    if isinstance(expression, UnaryOp):
        return f"({expression.operator} {format_expression(expression.operand)})"
    if isinstance(expression, BinaryOp):
        return (
            f"({format_expression(expression.left)} {expression.operator} "
            f"{format_expression(expression.right)})"
        )
    if isinstance(expression, Pre):
        return f"({format_expression(expression.operand)} pre {format_constant(expression.initial)})"
    if isinstance(expression, When):
        return f"({format_expression(expression.operand)} when {format_expression(expression.condition)})"
    if isinstance(expression, Default):
        return (
            f"({format_expression(expression.preferred)} default "
            f"{format_expression(expression.alternative)})"
        )
    if isinstance(expression, Cell):
        return (
            f"({format_expression(expression.operand)} cell "
            f"{format_expression(expression.condition)} init {format_constant(expression.initial)})"
        )
    raise TypeError(f"unsupported expression node: {expression!r}")


def format_clock(expression: ClockExpressionSyntax) -> str:
    """Render a clock expression."""
    if isinstance(expression, ClockOf):
        return f"^{expression.name}"
    if isinstance(expression, ClockTrue):
        return f"[{expression.name}]"
    if isinstance(expression, ClockFalse):
        return f"[not {expression.name}]"
    if isinstance(expression, ClockEmpty):
        return "^0"
    if isinstance(expression, ClockBinary):
        symbol = {"and": "^*", "or": "^+", "diff": "^-"}[expression.operator]
        return f"({format_clock(expression.left)} {symbol} {format_clock(expression.right)})"
    raise TypeError(f"unsupported clock expression node: {expression!r}")


def format_statement(statement: Statement, indent: int = 0) -> str:
    """Render a statement (equation, constraint, composition, restriction)."""
    pad = "  " * indent
    if isinstance(statement, Definition):
        return f"{pad}{statement.target} := {format_expression(statement.expression)};"
    if isinstance(statement, ClockConstraint):
        return f"{pad}{' = '.join(format_clock(clock) for clock in statement.clocks)};"
    if isinstance(statement, Instantiation):
        outputs = ", ".join(statement.outputs)
        arguments = ", ".join(format_expression(argument) for argument in statement.arguments)
        # Outputs are always parenthesized: the parser recognizes an
        # instantiation by its leading '(' (a bare `x := p(y)` would be read
        # as an equation whose right-hand side the expression grammar rejects).
        return f"{pad}({outputs}) := {statement.process}({arguments});"
    if isinstance(statement, Composition):
        return "\n".join(format_statement(child, indent) for child in statement.statements)
    if isinstance(statement, Restriction):
        hidden = ", ".join(statement.hidden)
        body = format_statement(statement.body, indent + 1)
        return f"{pad}local {hidden};\n{body}"
    raise TypeError(f"unsupported statement node: {statement!r}")


def format_process(process: ProcessDefinition) -> str:
    """Render a full process definition."""
    inputs = ", ".join(process.inputs)
    outputs = ", ".join(process.outputs)
    lines: List[str] = [f"process {process.name} ({inputs}) returns ({outputs}) {{"]
    if process.locals:
        lines.append(f"  local {', '.join(process.locals)};")
    body = process.body
    if isinstance(body, Restriction) and set(body.hidden) <= set(process.locals):
        body = body.body
    lines.append(format_statement(body, 1))
    lines.append("}")
    return "\n".join(lines)


def format_primitive_equation(equation: PrimitiveEquation) -> str:
    """Render a primitive equation of a normalized process."""
    if isinstance(equation, FunctionEquation):
        rendered = [
            operand if isinstance(operand, str) else format_constant(operand.value)
            for operand in equation.operands
        ]
        if equation.operator == "id":
            return f"{equation.target} := {rendered[0]}"
        if len(rendered) == 1:
            return f"{equation.target} := {equation.operator} {rendered[0]}"
        return f"{equation.target} := {rendered[0]} {equation.operator} {rendered[1]}"
    if isinstance(equation, DelayEquation):
        return f"{equation.target} := {equation.source} pre {format_constant(equation.initial)}"
    if isinstance(equation, SamplingEquation):
        source = (
            equation.source
            if isinstance(equation.source, str)
            else format_constant(equation.source.value)
        )
        return f"{equation.target} := {source} when {equation.condition}"
    if isinstance(equation, MergeEquation):
        return f"{equation.target} := {equation.preferred} default {equation.alternative}"
    if isinstance(equation, ClockEquation):
        return f"{format_clock(equation.left)} = {format_clock(equation.right)}"
    raise TypeError(f"unsupported primitive equation: {equation!r}")


def _surface_primitive_equation(equation: PrimitiveEquation) -> str:
    """One primitive equation as re-parseable Signal surface syntax."""
    if isinstance(equation, FunctionEquation):
        rendered = [
            operand if isinstance(operand, str) else format_constant(operand.value)
            for operand in equation.operands
        ]
        if equation.operator == "id":
            return f"{equation.target} := {rendered[0]}"
        if len(rendered) == 1:
            return f"{equation.target} := ({equation.operator} {rendered[0]})"
        return f"{equation.target} := ({rendered[0]} {equation.operator} {rendered[1]})"
    if isinstance(equation, DelayEquation):
        return (
            f"{equation.target} := "
            f"({equation.source} pre {format_constant(equation.initial)})"
        )
    if isinstance(equation, SamplingEquation):
        source = (
            equation.source
            if isinstance(equation.source, str)
            else format_constant(equation.source.value)
        )
        return f"{equation.target} := ({source} when {equation.condition})"
    if isinstance(equation, MergeEquation):
        return (
            f"{equation.target} := "
            f"({equation.preferred} default {equation.alternative})"
        )
    if isinstance(equation, ClockEquation):
        return f"{format_clock(equation.left)} = {format_clock(equation.right)}"
    raise TypeError(f"unsupported primitive equation: {equation!r}")


def format_normalized_source(process: NormalizedProcess) -> str:
    """Render a normalized process as **re-parseable** Signal source.

    Every primitive equation has a surface-syntax equivalent, so a
    normalized process — unlike an arbitrary analysis artifact — can be
    printed back into the language:
    ``normalize(parse_process(format_normalized_source(p)))`` re-derives
    the same primitive equations and therefore the same
    :func:`process_digest` as ``p``.  This is what lets *generated* designs
    (whose components exist only in normalized form) round-trip through
    the printer and parser like hand-written library sources do, and what
    makes corpus entries inspectable as source rather than only as
    canonical-form text.
    """
    inputs = ", ".join(process.inputs)
    outputs = ", ".join(process.outputs)
    lines: List[str] = [f"process {process.name} ({inputs}) returns ({outputs}) {{"]
    if process.locals:
        lines.append(f"  local {', '.join(process.locals)};")
    lines.extend(
        f"  {_surface_primitive_equation(equation)};" for equation in process.equations
    )
    lines.append("}")
    return "\n".join(lines)


def format_normalized_process(process: NormalizedProcess) -> str:
    """Render a normalized process: interface followed by its primitive equations."""
    lines = [
        f"process {process.name}",
        f"  inputs:  {', '.join(process.inputs) or '(none)'}",
        f"  outputs: {', '.join(process.outputs) or '(none)'}",
        f"  locals:  {', '.join(process.locals) or '(none)'}",
        "  equations:",
    ]
    lines.extend(f"    {format_primitive_equation(equation)}" for equation in process.equations)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Canonical form and content digests
# ---------------------------------------------------------------------------

#: a render template: the plain render, the text before the first signal,
#: and each signal occurrence paired with the text that follows it
_Template = Tuple[str, str, Tuple[Tuple[str, str], ...]]


def _template(equation: PrimitiveEquation) -> _Template:
    """The render template of an equation, built once per equation object.

    The equation is rendered once by :func:`format_primitive_equation` with
    every signal replaced by a numbered ``\\x00`` sentinel and the render
    is split at the sentinels (the rest is operators and constants, whose
    renders hold no ``\\x00``), so filling the slots with names gives
    exactly the render of the correspondingly renamed equation.
    """
    template = equation._template
    if template is None:
        names = tuple(dict.fromkeys(equation.signals()))
        sentinels = {name: f"\x00{index}\x00" for index, name in enumerate(names)}
        pieces = format_primitive_equation(rename_equation(equation, sentinels)).split("\x00")
        occurrences = tuple(
            (names[int(pieces[index])], pieces[index + 1])
            for index in range(1, len(pieces), 2)
        )
        plain = pieces[0] + "".join(name + text for name, text in occurrences)
        template = (plain, pieces[0], occurrences)
        object.__setattr__(equation, "_template", template)
    return template


def _fill(template: _Template, names: Mapping[str, str]) -> str:
    """A template rendered with its signals renamed by ``names``."""
    _plain, head, occurrences = template
    return head + "".join([names.get(name, name) + text for name, text in occurrences])


def _canonical_local_renaming(process: NormalizedProcess) -> Dict[str, str]:
    """α-rename hidden locals canonically, independently of input order.

    Normalization invents fresh local names (``_t1``, ...) whose spelling
    depends on the construction path, and callers may list equations in any
    order; the renaming must therefore be a function of the process's
    *content* only.  Each hidden local is characterized by a signature —
    the sorted renders of the equations it occurs in, with itself marked
    ``\\x00self`` and every other hidden local replaced by its current
    equivalence-class rank ``\\x00c{rank}`` — and the ranks are refined
    until stable, for at most ``len(hidden) + 2`` rounds (Weisfeiler–Leman
    style partition refinement).  Distinguishable locals end in distinct
    classes whatever order the equations were listed in; residual ties are
    broken by original spelling.  Like WL refinement in general this is
    complete for the occurrence structures arising in practice but not in
    theory: a pathologically regular reference pattern among hidden locals
    could leave distinguishable locals tied, letting α-variants digest
    apart — such designs then merely miss each other's cached artifacts;
    verdicts are never wrong, because the compiled-payload loader
    independently rejects signal-name mismatches.

    Each round is linear in the occurrences of hidden locals: the equations
    each local occurs in are indexed once, as render templates (see
    :func:`_template`) whose slots a round fills from the current ranks,
    so no equation is renamed or rendered again.

    The canonical names live in a ``\\x00``-prefixed namespace no parsed or
    built process can occupy, so a renamed local can never collide with —
    and alias itself to — a real signal of the process.
    """
    interface = set(process.inputs) | set(process.outputs)
    hidden = set(process.locals) - interface
    if not hidden:
        return {}
    occurrences: Dict[str, List[_Template]] = {name: [] for name in hidden}
    for equation in process.equations:
        template = _template(equation)
        for name in hidden.intersection(equation.signals()):
            occurrences[name].append(template)
    rank: Dict[str, int] = {name: 0 for name in hidden}
    for _round in range(len(hidden) + 2):
        marking = {name: f"\x00c{rank[name]}" for name in hidden}
        signatures: Dict[str, List[str]] = {}
        for name, templates in occurrences.items():
            marking[name] = "\x00self"
            signatures[name] = sorted(_fill(template, marking) for template in templates)
            marking[name] = f"\x00c{rank[name]}"
        ordered = sorted(hidden, key=lambda name: (rank[name], signatures[name]))
        refined: Dict[str, int] = {}
        previous_key = None
        next_rank = -1
        for name in ordered:
            key = (rank[name], signatures[name])
            if key != previous_key:
                next_rank += 1
                previous_key = key
            refined[name] = next_rank
        if refined == rank:
            break
        rank = refined
    # distinct final names per local; classes that refinement could not
    # split are tie-broken by original spelling (see the docstring caveat)
    ordered = sorted(hidden, key=lambda name: (rank[name], name))
    return {name: f"\x00l{position}" for position, name in enumerate(ordered)}


def format_canonical(process: NormalizedProcess) -> str:
    """The canonical, digest-stable rendering of a normalized process.

    Deterministic by construction: the interface is listed in sorted order,
    hidden locals are α-renamed positionally (order-independently, see
    :func:`_canonical_local_renaming`), types are listed sorted by signal,
    and the primitive equations are rendered then sorted as text.  Two
    processes with the same primitive equations (up to local renaming and
    equation order) produce the same canonical form, which is what makes
    content-addressing reproducible across parse ∘ print round trips.
    """
    renaming = _canonical_local_renaming(process)
    rendered = sorted(
        _fill(_template(equation), renaming) if renaming else _template(equation)[0]
        for equation in process.equations
    )
    signals = sorted(
        {renaming.get(name, name) for name in process.all_signals()}
        | set(process.inputs)
        | set(process.outputs)
    )
    types = {
        renaming.get(name, name): kind for name, kind in process.types.items()
    }
    lines = [
        f"process {process.name}",
        f"inputs: {', '.join(sorted(process.inputs))}",
        f"outputs: {', '.join(sorted(process.outputs))}",
        "types: " + ", ".join(name + ":" + types.get(name, "any") for name in signals),
        "equations:",
    ]
    lines.extend(f"  {line}" for line in rendered)
    return "\n".join(lines) + "\n"


def digest_of_forms(forms: Iterable[str], extra: Optional[str] = None) -> str:
    """The SHA-256 digest of already-rendered canonical forms.

    The single implementation of the content-digest hash: both
    :func:`canonical_digest` (rendering the forms itself) and callers that
    memoize canonical forms (``AnalysisContext.design_digest``) go through
    here, so the byte layout cannot silently fork.
    """
    digest = hashlib.sha256()
    for form in sorted(forms):
        digest.update(form.encode("utf-8"))
        digest.update(b"\x00")
    if extra:
        digest.update(extra.encode("utf-8"))
    return digest.hexdigest()


def canonical_digest(processes: Iterable[NormalizedProcess], extra: Optional[str] = None) -> str:
    """The SHA-256 content digest of one or more normalized processes.

    The digest covers the concatenated canonical forms (component order is
    irrelevant: forms are sorted before hashing) plus an optional ``extra``
    discriminator.  This is the identity the design registry and the
    artifact store key on: same digest ⇔ same canonical source ⇔ same
    analyses, same compiled relations, same verdicts.
    """
    return digest_of_forms(
        (format_canonical(process) for process in processes), extra
    )


def process_digest(process: NormalizedProcess) -> str:
    """The content digest of a single normalized process."""
    return canonical_digest([process])


def process_fingerprint(process: NormalizedProcess) -> str:
    """An *exact* (α-sensitive) fingerprint of a normalized process.

    Unlike :func:`process_digest`, hidden locals are **not** α-renamed: two
    processes that differ only in the spelling of a hidden local share a
    digest but get distinct fingerprints.  The artifact graph keys its
    in-memory nodes by ``(digest, fingerprint)`` because most in-memory
    artifacts (analyses, hierarchies, compiled relations, LTS states) name
    concrete signals — an α-variant must not adopt them — while the
    persistent tier keys by digest alone and *validates* names on load.

    Cheap by construction: no partition refinement, just the sorted plain
    renders, which the equations' templates already hold when the canonical
    form was printed first.
    """
    digest = hashlib.sha256()
    digest.update(process.name.encode("utf-8"))
    for group in (process.inputs, process.outputs, process.locals):
        digest.update(("\x00" + ",".join(group)).encode("utf-8"))
    digest.update(
        ("\x00" + ",".join(f"{k}:{v}" for k, v in sorted(process.types.items()))).encode("utf-8")
    )
    for line in sorted(_template(equation)[0] for equation in process.equations):
        digest.update(("\x00" + line).encode("utf-8"))
    return digest.hexdigest()[:24]


def options_fingerprint(options: Mapping[str, object]) -> str:
    """The canonical rendering of a query-options mapping.

    One deterministic spelling shared by every layer that keys on options —
    the session's verdict nodes, the artifact store's ``verdict-*`` object
    names and the service scheduler's coalescing table — so that "the same
    query" resolves to the same artifact everywhere.
    """
    return repr(sorted(options.items(), key=repr))
