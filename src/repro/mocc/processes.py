"""Denotational processes: sets of behaviors, and their compositions.

A process ``p`` is a set of behaviors over the same domain.  This module
implements the two compositions of Section 2.1:

* synchronous composition ``p | q`` — behaviors of ``p`` and ``q`` that agree
  (are equal) on the shared interface are glued together;
* asynchronous composition ``p ‖ q`` — behaviors that are *flow equivalent*
  on the shared interface are glued together, modelling communication through
  unbounded FIFO channels.

Denotational processes are finite over-approximations used for checking the
formal properties of Section 4 on bounded traces; the executable semantics of
Signal lives in :mod:`repro.semantics`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.mocc.behaviors import Behavior, flow_equivalent
from repro.mocc.reactions import Reaction, concatenate
from repro.mocc.signals import SignalTrace


class DenotationalProcess:
    """A finite set of behaviors sharing the same domain."""

    __slots__ = ("_domain", "_behaviors")

    def __init__(self, domain: Iterable[str], behaviors: Iterable[Behavior] = ()):
        self._domain: FrozenSet[str] = frozenset(domain)
        collected: List[Behavior] = []
        seen: Set[Behavior] = set()
        for behavior in behaviors:
            if behavior.domain() != set(self._domain):
                raise ValueError(
                    f"behavior domain {sorted(behavior.domain())} differs from the "
                    f"process domain {sorted(self._domain)}"
                )
            if behavior not in seen:
                seen.add(behavior)
                collected.append(behavior)
        self._behaviors: Tuple[Behavior, ...] = tuple(collected)

    # -- queries ------------------------------------------------------------
    @property
    def domain(self) -> FrozenSet[str]:
        return self._domain

    def behaviors(self) -> Tuple[Behavior, ...]:
        return self._behaviors

    def __len__(self) -> int:
        return len(self._behaviors)

    def __iter__(self) -> Iterator[Behavior]:
        return iter(self._behaviors)

    def __contains__(self, behavior: Behavior) -> bool:
        return behavior in set(self._behaviors)

    def __repr__(self) -> str:
        return f"DenotationalProcess(domain={sorted(self._domain)}, behaviors={len(self._behaviors)})"

    # -- simple constructions -------------------------------------------------
    def restrict(self, names: Iterable[str]) -> "DenotationalProcess":
        """Project every behavior on the given signal names."""
        wanted = frozenset(names) & self._domain
        return DenotationalProcess(wanted, (behavior.restrict(wanted) for behavior in self))

    def hide(self, names: Iterable[str]) -> "DenotationalProcess":
        """The paper's restriction ``P/x``: hide the given signals."""
        return self.restrict(self._domain - frozenset(names))

    def filter(self, predicate: Callable[[Behavior], bool]) -> "DenotationalProcess":
        return DenotationalProcess(self._domain, (b for b in self if predicate(b)))

    def extend(self, behaviors: Iterable[Behavior]) -> "DenotationalProcess":
        return DenotationalProcess(self._domain, tuple(self._behaviors) + tuple(behaviors))

    def flow_classes(self) -> Set[Tuple[Tuple[str, Tuple[object, ...]], ...]]:
        """The set of flow-equivalence classes of the process, as canonical keys."""
        classes = set()
        for behavior in self:
            key = tuple(sorted((name, values) for name, values in behavior.flows().items()))
            classes.add(key)
        return classes


def synchronous_composition(left: DenotationalProcess, right: DenotationalProcess) -> DenotationalProcess:
    """Synchronous composition ``p | q`` of two denotational processes."""
    interface = left.domain & right.domain
    domain = left.domain | right.domain
    combined: List[Behavior] = []
    for b in left:
        b_interface = b.restrict(interface)
        for c in right:
            if b_interface == c.restrict(interface):
                combined.append(b.union(c))
    return DenotationalProcess(domain, combined)


def iter_asynchronous_gluings(
    left: DenotationalProcess, right: DenotationalProcess
) -> Iterator[Behavior]:
    """Stream the gluings of ``p ‖ q`` pair by pair, without materializing.

    Behaviors are glued when they are *flow equivalent* on the shared
    interface; every gluing keeps, for each shared signal, the flow of
    values (re-timed on the tags of the left operand).  A consumer that
    stops early — the isochrony comparison of
    :mod:`repro.properties.isochrony` — never pays for the remaining
    |left| × |right| combinations.
    """
    interface = left.domain & right.domain
    domain = left.domain | right.domain
    for b in left:
        for c in right:
            if flow_equivalent(b.restrict(interface), c.restrict(interface)):
                rows: Dict[str, SignalTrace] = {}
                for name in domain:
                    if name in b.domain():
                        rows[name] = b[name]
                    else:
                        rows[name] = c[name]
                yield Behavior(rows)


def asynchronous_composition(left: DenotationalProcess, right: DenotationalProcess) -> DenotationalProcess:
    """Asynchronous composition ``p ‖ q`` of two denotational processes.

    The materialized form of :func:`iter_asynchronous_gluings`, for callers
    that need the whole composite.
    """
    return DenotationalProcess(
        left.domain | right.domain, list(iter_asynchronous_gluings(left, right))
    )


def behaviors_from_reaction_sequences(
    domain: Iterable[str], sequences: Iterable[Iterable[Reaction]]
) -> DenotationalProcess:
    """Build a denotational process from sequences of reactions.

    Each sequence is concatenated (with consecutive fresh tags) into a
    behavior over ``domain``; silent reactions simply advance time without
    adding events, matching the paper's construction of behaviors as
    concatenations of reactions.
    """
    names = tuple(sorted(set(domain)))
    behaviors: List[Behavior] = []
    for sequence in sequences:
        behavior = Behavior.empty(names)
        tag = 0
        for reaction in sequence:
            behavior = concatenate(behavior, reaction.on_domain(names), tag)
            tag += 1
        behaviors.append(behavior)
    return DenotationalProcess(names, behaviors)
