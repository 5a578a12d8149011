"""A typed grammar over the Signal process language.

Scenario diversity is the fuel of differential testing: the verification
engines (static criterion, explicit, compiled, symbolic) are only as
trustworthy as the designs they are exercised on.  This module defines a
**typed grammar** whose rules are keyed by a :class:`Sort` — the pair of a
value type (``bool`` / ``num``) and a clock class (``sync``: the expression
lives on its component's master clock; ``sampled``: it lives on a proper
subclock introduced by ``when``) — so that every derivation is a well-typed,
well-clocked Signal expression by construction:

* functional rules (``and``, ``or``, ``not``, ``+``, ``-``, comparisons)
  keep their operands on one clock, as the clock calculus requires of
  ``x = y f z``;
* ``pre`` rules delay a flow on its own clock (initial values are part of
  the rule, keeping derivations reproducible);
* the **merge** rule ``(e when b) default e'`` samples and re-merges on one
  clock — its result is again ``sync``, which is what lets merges nest
  freely without breaking clock consistency;
* the **when** rule is the only one that *changes* clock class: it produces
  the ``sampled`` sort used for outputs whose clock is a proper subclock of
  the component's activation (the clock-hierarchy workout).

Two consumers, both deterministic:

* :meth:`Grammar.enumerate` — depth-bounded *unique-expression* enumeration
  (every expression of structural depth exactly ``d`` combines operands of
  depth ``< d`` with at least one of depth ``d - 1``; results are
  deduplicated per ``(sort, depth, vocabulary)`` and memoized);
* :meth:`Grammar.sample` — weight-driven sampling from an explicit
  ``random.Random(seed)`` — **never** wall-clock time — so a seed is a
  complete, replayable identity for a derivation.

On top of expressions, :func:`sample_component` and
:func:`enumerate_components` derive whole :class:`ProcessDefinition`
components in the shape the paper's analyses expect — a boolean activation
input pacing the data inputs (``x^ = [go]``), optional ``pre`` state
feedback, one grammar-derived expression per output — which is what the
topology generators of :mod:`repro.gen.topologies` compose into
multi-component designs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.lang.ast import (
    BinaryOp,
    Const,
    Default,
    Expression,
    Pre,
    ProcessDefinition,
    Ref,
    UnaryOp,
    When,
)
from repro.lang.builder import ProcessBuilder, tick, when_true


# ---------------------------------------------------------------------------
# Sorts: value type × clock class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sort:
    """The type a grammar rule is keyed by: value kind × clock class.

    ``kind`` is the coarse Signal type (``"bool"`` or ``"num"``, matching
    :func:`repro.lang.normalize.infer_types`); ``clock`` is ``"sync"`` for
    expressions on the component's master clock and ``"sampled"`` for
    expressions living on a proper subclock.
    """

    kind: str
    clock: str = "sync"

    def __post_init__(self) -> None:
        if self.kind not in ("bool", "num"):
            raise ValueError(f"unknown value kind {self.kind!r}")
        if self.clock not in ("sync", "sampled"):
            raise ValueError(f"unknown clock class {self.clock!r}")

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.kind}@{self.clock}"


BOOL = Sort("bool", "sync")
NUM = Sort("num", "sync")
BOOL_SAMPLED = Sort("bool", "sampled")
NUM_SAMPLED = Sort("num", "sampled")

SORTS = (BOOL, NUM, BOOL_SAMPLED, NUM_SAMPLED)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One typed production: ``sort ::= name(operand sorts...)``.

    ``build`` combines already-derived operand expressions into the result
    expression; it is a pure function of its operands (initial values of
    ``pre`` rules are baked into the rule itself), which is what keeps
    enumeration and seeded sampling deterministic.
    """

    name: str
    sort: Sort
    operands: Tuple[Sort, ...]
    build: Callable[..., Expression]
    weight: float = 1.0

    @property
    def arity(self) -> int:
        return len(self.operands)


def _binary(operator: str) -> Callable[[Expression, Expression], Expression]:
    def build(left: Expression, right: Expression) -> Expression:
        return BinaryOp(operator, left, right)

    return build


def _pre(initial: object) -> Callable[[Expression], Expression]:
    def build(operand: Expression) -> Expression:
        return Pre(operand, initial)

    return build


def _merge(preferred: Expression, condition: Expression, alternative: Expression) -> Expression:
    # (preferred when condition) default alternative: sampled then re-merged
    # on the operands' shared clock, so the result is again `sync`
    return Default(When(preferred, condition), alternative)


def _when(operand: Expression, condition: Expression) -> Expression:
    return When(operand, condition)


def default_rules() -> Tuple[Rule, ...]:
    """The standard rule set over the paper's expression language.

    Comparisons (``<``, ``=``) produce booleans *derived from numeric data*,
    deliberately: such components fall outside the compiled engine's boolean
    fragment and exercise its documented interpreter fallback, which is
    exactly the kind of engine boundary differential testing must cover.
    """
    return (
        # boolean, master clock
        Rule("not", BOOL, (BOOL,), lambda e: UnaryOp("not", e)),
        Rule("and", BOOL, (BOOL, BOOL), _binary("and")),
        Rule("or", BOOL, (BOOL, BOOL), _binary("or")),
        Rule("pre-true", BOOL, (BOOL,), _pre(True)),
        Rule("pre-false", BOOL, (BOOL,), _pre(False)),
        Rule("lt", BOOL, (NUM, NUM), _binary("<"), weight=0.5),
        Rule("eq", BOOL, (NUM, NUM), _binary("="), weight=0.25),
        Rule("merge-bool", BOOL, (BOOL, BOOL, BOOL), _merge, weight=0.75),
        # numeric, master clock
        Rule("add", NUM, (NUM, NUM), _binary("+")),
        Rule("sub", NUM, (NUM, NUM), _binary("-")),
        Rule("pre-zero", NUM, (NUM,), _pre(0)),
        Rule("pre-one", NUM, (NUM,), _pre(1)),
        Rule("merge-num", NUM, (NUM, BOOL, NUM), _merge, weight=0.75),
        # clock-changing rules: the only producers of the sampled sorts
        Rule("when-bool", BOOL_SAMPLED, (BOOL, BOOL), _when),
        Rule("when-num", NUM_SAMPLED, (NUM, BOOL), _when),
    )


#: constant terminals per value kind (small, hashable, digest-stable)
DEFAULT_CONSTANTS: Mapping[str, Tuple[object, ...]] = {
    "bool": (True, False),
    "num": (0, 1, 2),
}


# ---------------------------------------------------------------------------
# The grammar
# ---------------------------------------------------------------------------

class Grammar:
    """Typed rules plus enumeration and seeded sampling over a vocabulary.

    A *vocabulary* maps signal names to value kinds (``"bool"``/``"num"``);
    its entries are the reference terminals of every derivation.  All
    signals of one vocabulary are assumed synchronous (the component
    generators guarantee this with ``x^ = [go]`` pacing constraints), so a
    reference terminal always has the ``sync`` clock class.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        constants: Optional[Mapping[str, Sequence[object]]] = None,
    ):
        self.rules: Tuple[Rule, ...] = tuple(rules if rules is not None else default_rules())
        self.constants: Dict[str, Tuple[object, ...]] = {
            kind: tuple(values)
            for kind, values in (constants or DEFAULT_CONSTANTS).items()
        }
        self._by_sort: Dict[Sort, Tuple[Rule, ...]] = {}
        for sort in SORTS:
            self._by_sort[sort] = tuple(rule for rule in self.rules if rule.sort == sort)
        #: enumeration memo: (sort, depth, vocabulary items) -> expressions
        self._enumerated: Dict[Tuple, Tuple[Expression, ...]] = {}

    def rules_for(self, sort: Sort) -> Tuple[Rule, ...]:
        return self._by_sort.get(sort, ())

    # -- terminals -------------------------------------------------------------
    def terminals(self, sort: Sort, vocabulary: Mapping[str, str]) -> Tuple[Expression, ...]:
        """The depth-0 expressions of ``sort``: typed references, then constants."""
        refs: List[Expression] = [
            Ref(name) for name, kind in vocabulary.items() if kind == sort.kind
        ]
        if sort.clock != "sync":
            # sampled expressions only arise from `when` rules; there are no
            # sampled terminals (a bare reference is on the master clock)
            return ()
        consts = [Const(value) for value in self.constants.get(sort.kind, ())]
        return tuple(refs) + tuple(consts)

    # -- unique enumeration ------------------------------------------------------
    def enumerate(
        self, sort: Sort, depth: int, vocabulary: Mapping[str, str]
    ) -> Tuple[Expression, ...]:
        """All unique expressions of ``sort`` with structural depth ≤ ``depth``.

        Ordered deterministically (shallow before deep, rules in declaration
        order, operands in enumeration order) so the result can seed corpus
        matrices reproducibly.
        """
        return tuple(
            itertools.chain.from_iterable(
                self.enumerate_exact(sort, d, vocabulary) for d in range(depth + 1)
            )
        )

    def enumerate_exact(
        self, sort: Sort, depth: int, vocabulary: Mapping[str, str]
    ) -> Tuple[Expression, ...]:
        """All unique expressions of ``sort`` with structural depth exactly ``depth``."""
        key = (sort, depth, tuple(sorted(vocabulary.items())))
        cached = self._enumerated.get(key)
        if cached is not None:
            return cached
        if depth == 0:
            result = self.terminals(sort, vocabulary)
        else:
            seen: set = set()
            out: List[Expression] = []
            for rule in self.rules_for(sort):
                if rule.arity == 0:
                    continue
                # operand depth profiles: all < depth, at least one == depth-1
                pools = [
                    [
                        (d, expression)
                        for d in range(depth)
                        for expression in self.enumerate_exact(
                            rule.operands[index], d, vocabulary
                        )
                    ]
                    for index in range(rule.arity)
                ]
                for choice in itertools.product(*pools):
                    if max(d for d, _ in choice) != depth - 1:
                        continue
                    expression = rule.build(*(e for _, e in choice))
                    if expression not in seen:
                        seen.add(expression)
                        out.append(expression)
            result = tuple(out)
        self._enumerated[key] = result
        return result

    def count(self, sort: Sort, depth: int, vocabulary: Mapping[str, str]) -> int:
        """How many unique expressions :meth:`enumerate` would produce."""
        return len(self.enumerate(sort, depth, vocabulary))

    # -- seeded sampling ---------------------------------------------------------
    def sample(
        self,
        sort: Sort,
        vocabulary: Mapping[str, str],
        rng: random.Random,
        max_depth: int = 3,
    ) -> Expression:
        """One weight-sampled expression of ``sort``, depth ≤ ``max_depth``.

        Deterministic from ``rng`` (seed it with an explicit value); at the
        depth bound only terminals remain eligible.  Raises
        :class:`ValueError` when the sort has neither applicable rules nor
        terminals (e.g. a sampled sort at depth 0).
        """
        terminals = self.terminals(sort, vocabulary)
        rules = self.rules_for(sort) if max_depth > 0 else ()
        # terminals weigh like one rule application so shallow derivations
        # stay common even with many rules
        choices: List[Tuple[float, object]] = [(rule.weight, rule) for rule in rules]
        if terminals:
            choices.append((float(len(rules)) or 1.0, None))
        if not choices:
            raise ValueError(f"sort {sort} has no derivation at depth {max_depth}")
        total = sum(weight for weight, _ in choices)
        pick = rng.random() * total
        chosen: object = choices[-1][1]
        for weight, candidate in choices:
            pick -= weight
            if pick <= 0:
                chosen = candidate
                break
        if chosen is None:
            return terminals[rng.randrange(len(terminals))]
        rule: Rule = chosen
        operands = [
            self.sample(operand_sort, vocabulary, rng, max_depth - 1)
            for operand_sort in rule.operands
        ]
        return rule.build(*operands)

    def sample_referencing(
        self,
        sort: Sort,
        vocabulary: Mapping[str, str],
        rng: random.Random,
        max_depth: int = 3,
        attempts: int = 8,
    ) -> Expression:
        """Like :meth:`sample` but guaranteed to reference at least one signal.

        A pure-constant equation has no clock of its own, which leaves the
        defined signal's clock unconstrained; component generation avoids
        that degenerate shape by resampling (bounded), then falling back to
        merging a reference in.
        """
        names = [name for name, kind in vocabulary.items() if kind == sort.kind]
        for _ in range(attempts):
            expression = self.sample(sort, vocabulary, rng, max_depth)
            if expression.free_signals():
                return expression
        if not names:
            # no same-kind signal to anchor the clock; synchronize through a
            # comparison (num) or parity (bool) of whatever the vocabulary has
            others = sorted(vocabulary)
            if not others:
                raise ValueError("vocabulary has no signals to reference")
            anchor = Ref(others[rng.randrange(len(others))])
            if sort.kind == "bool":
                return BinaryOp("=", anchor, anchor)
            return BinaryOp("-", anchor, anchor)
        anchor = Ref(names[rng.randrange(len(names))])
        expression = self.sample(sort, vocabulary, rng, max_depth - 1 if max_depth else 0)
        operator = "or" if sort.kind == "bool" else "+"
        return BinaryOp(operator, anchor, expression)


# ---------------------------------------------------------------------------
# Whole components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentSpec:
    """The interface/clock shape of one grammar-derived component.

    ``outputs`` maps output names to sorts: a ``sync`` output lives on the
    activation clock, a ``sampled`` output on a grammar-chosen subclock.
    ``state`` adds, per output, a ``pre`` feedback signal (``<out>_prev``)
    to the expression vocabulary, giving derivations access to their own
    history.
    """

    name: str
    inputs: Tuple[Tuple[str, str], ...] = ()  # (signal, kind)
    outputs: Tuple[Tuple[str, Sort], ...] = ()
    activation: Optional[str] = None  # defaults to "<name>_go"
    state: bool = True
    depth: int = 2

    def activation_name(self) -> str:
        return self.activation or f"{self.name}_go"


def _component_vocabulary(spec: ComponentSpec) -> Dict[str, str]:
    vocabulary: Dict[str, str] = {name: kind for name, kind in spec.inputs}
    if spec.state:
        for output, sort in spec.outputs:
            if sort.clock == "sync":
                vocabulary[f"{output}_prev"] = sort.kind
    return vocabulary


def build_component(
    spec: ComponentSpec, expressions: Mapping[str, Expression]
) -> ProcessDefinition:
    """Assemble a :class:`ProcessDefinition` from per-output expressions.

    The component follows the endochronous shape of the paper's examples:
    a boolean activation input paces every data input (``x^ = [go]``), the
    optional state signals are delayed copies of the outputs, and each
    output is defined by its grammar-derived expression.
    """
    activation = spec.activation_name()
    builder = ProcessBuilder(
        spec.name,
        inputs=[activation] + [name for name, _kind in spec.inputs],
        outputs=[name for name, _sort in spec.outputs],
    )
    for name, _kind in spec.inputs:
        builder.constrain(tick(name), when_true(activation))
    vocabulary = _component_vocabulary(spec)
    for output, sort in spec.outputs:
        expression = expressions[output]
        builder.define(output, expression)
        if sort.clock == "sync":
            # anchor the output on the activation clock even when its
            # expression is built from constants and state only
            builder.constrain(tick(output), when_true(activation))
        previous = f"{output}_prev"
        if previous in vocabulary:
            builder.local(previous)
            builder.define(previous, Pre(Ref(output), True if sort.kind == "bool" else 0))
    return builder.build()


def sample_component(
    spec: ComponentSpec,
    rng: random.Random,
    grammar: Optional[Grammar] = None,
) -> ProcessDefinition:
    """One seeded-random component: per-output expressions drawn by sort."""
    grammar = grammar or Grammar()
    vocabulary = _component_vocabulary(spec)
    expressions = {
        output: grammar.sample_referencing(sort, vocabulary, rng, spec.depth)
        for output, sort in spec.outputs
    }
    return build_component(spec, expressions)


def enumerate_components(
    spec: ComponentSpec,
    grammar: Optional[Grammar] = None,
    limit: Optional[int] = None,
) -> Iterator[ProcessDefinition]:
    """Every unique component over ``spec``: the cartesian product, per
    output, of the unique expressions of that output's sort (depth-bounded
    by ``spec.depth``).  Deterministically ordered; ``limit`` truncates."""
    grammar = grammar or Grammar()
    vocabulary = _component_vocabulary(spec)
    per_output = [
        [
            expression
            for expression in grammar.enumerate(sort, spec.depth, vocabulary)
            if expression.free_signals()
        ]
        for _output, sort in spec.outputs
    ]
    names = [output for output, _sort in spec.outputs]
    produced = 0
    for index, choice in enumerate(itertools.product(*per_output)):
        if limit is not None and produced >= limit:
            return
        expressions = dict(zip(names, choice))
        definition = build_component(
            ComponentSpec(
                name=f"{spec.name}_{index}",
                inputs=spec.inputs,
                outputs=spec.outputs,
                activation=spec.activation,
                state=spec.state,
                depth=spec.depth,
            ),
            expressions,
        )
        produced += 1
        yield definition
