"""Reactions: behaviors with (at most) one time tag.

Reactions are the unit of execution in the paper's semantics: the meaning of
a Signal process is built by concatenating reactions, and weak endochrony
(Definition 2) is stated in terms of independent reactions and their union
``r ⊔ s``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.mocc.behaviors import Behavior
from repro.mocc.signals import SignalTrace, Value
from repro.mocc.tags import Tag

#: canonical sorted-domain tuples, shared across every reaction of a process
_DOMAIN_CACHE: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

#: bound on the module-level intern/cache tables: past this many entries the
#: table is cleared (interning is an optimization — equality and hashing do
#: not depend on table persistence, so eviction is always safe)
INTERN_TABLE_LIMIT = 1 << 20


def _canonical_domain(domain: Iterable[str]) -> Tuple[str, ...]:
    if isinstance(domain, tuple):
        cached = _DOMAIN_CACHE.get(domain)
        if cached is not None:
            return cached
        canonical = tuple(sorted(set(domain)))
        if len(_DOMAIN_CACHE) >= INTERN_TABLE_LIMIT:
            _DOMAIN_CACHE.clear()
        _DOMAIN_CACHE[domain] = canonical
        _DOMAIN_CACHE[canonical] = canonical
        return canonical
    return _canonical_domain(tuple(domain))


class Reaction:
    """An assignment of values to a subset of signals at a single instant.

    A reaction is *silent* (stuttering) when it assigns no signal at all.
    Unlike :class:`Behavior`, a reaction abstracts the concrete tag: the tag
    is chosen when the reaction is concatenated to a behavior.

    Reactions are immutable, and the model-checking engines handle the same
    reaction many times (``seen`` sets, product joins, axiom sweeps), so the
    derived views are precomputed once — :meth:`items`,
    :meth:`present_signals` and :meth:`absent_signals` return shared
    immutable objects, the hash is computed at construction time, and
    equality short-circuits on identity.  :meth:`interned` additionally
    hash-conses reactions so the hot paths compare pointers.
    """

    __slots__ = ("_domain", "_present", "_items", "_present_set", "_absent_set", "_hash")

    #: the intern table of :meth:`interned` (content-keyed canonical instances)
    _interned: Dict[
        Tuple[Tuple[str, ...], Tuple[Tuple[str, Value], ...], Tuple[type, ...]], "Reaction"
    ] = {}

    def __init__(self, domain: Iterable[str], present: Optional[Mapping[str, Value]] = None):
        self._domain: Tuple[str, ...] = _canonical_domain(domain)
        values = dict(present or {})
        unknown = set(values) - set(self._domain)
        if unknown:
            raise ValueError(f"reaction assigns signals outside its domain: {sorted(unknown)}")
        self._present: Dict[str, Value] = values
        self._items: Tuple[Tuple[str, Value], ...] = tuple(sorted(values.items()))
        self._present_set: FrozenSet[str] = frozenset(values)
        self._absent_set: FrozenSet[str] = frozenset(self._domain) - self._present_set
        self._hash: int = hash((self._domain, self._items))

    @classmethod
    def interned(
        cls, domain: Iterable[str], present: Optional[Mapping[str, Value]] = None
    ) -> "Reaction":
        """The canonical shared instance of this reaction (hash-consed).

        Equal reactions returned by this constructor are the *same* object,
        so equality checks in the engines' inner loops are pointer
        comparisons and hashes are never recomputed.  The table holds at
        most :data:`INTERN_TABLE_LIMIT` entries (cleared on overflow, so a
        long-running process is bounded); :meth:`clear_interned` resets it
        eagerly between unrelated sessions.
        """
        canonical = _canonical_domain(domain)
        items = tuple(sorted((present or {}).items()))
        # equality identifies True with 1; the key keeps the value types
        # apart, so a boolean value never comes back as a numeric one
        key = (canonical, items, tuple([type(value) for _, value in items]))
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        candidate = cls(canonical, present)
        if len(cls._interned) >= INTERN_TABLE_LIMIT:
            cls._interned.clear()
        cls._interned[key] = candidate
        return candidate

    @classmethod
    def clear_interned(cls) -> None:
        cls._interned.clear()

    # -- queries ------------------------------------------------------------
    @property
    def domain(self) -> Tuple[str, ...]:
        return self._domain

    def present_signals(self) -> FrozenSet[str]:
        """The signals that carry an event in this reaction (shared, immutable)."""
        return self._present_set

    def absent_signals(self) -> FrozenSet[str]:
        return self._absent_set

    def is_silent(self) -> bool:
        """True iff the reaction has no event (a stuttering reaction)."""
        return not self._present

    def value(self, name: str) -> Value:
        return self._present[name]

    def get(self, name: str, default: Optional[Value] = None) -> Optional[Value]:
        return self._present.get(name, default)

    def items(self) -> Tuple[Tuple[str, Value], ...]:
        return self._items

    def __contains__(self, name: str) -> bool:
        return name in self._present

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Reaction):
            return NotImplemented
        return (
            self._hash == other._hash
            and self._domain == other._domain
            and self._items == other._items
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        events = " ".join(f"{name}={value!r}" for name, value in self.items())
        return f"Reaction({events or 'silent'})"

    # -- transformations ----------------------------------------------------
    def restrict(self, names: Iterable[str]) -> "Reaction":
        """Restriction of the reaction to a subset of its domain."""
        wanted = set(names)
        return Reaction(
            [name for name in self._domain if name in wanted],
            {name: value for name, value in self._present.items() if name in wanted},
        )

    def on_domain(self, domain: Iterable[str]) -> "Reaction":
        """The same events viewed on a (possibly larger) domain."""
        return Reaction(domain, self._present)

    def as_behavior(self, tag: Tag) -> Behavior:
        """The reaction as a behavior whose unique tag is ``tag``."""
        return Behavior(
            {
                name: (SignalTrace({tag: self._present[name]}) if name in self._present else SignalTrace.empty())
                for name in self._domain
            }
        )


def independent(left: Reaction, right: Reaction) -> bool:
    """True iff the two reactions have disjoint sets of present signals."""
    return not (left.present_signals() & right.present_signals())


def merge_reactions(left: Reaction, right: Reaction) -> Reaction:
    """The union ``r ⊔ s`` of two independent reactions."""
    if not independent(left, right):
        raise ValueError("cannot merge reactions that share present signals")
    domain = set(left.domain) | set(right.domain)
    events: Dict[str, Value] = dict(left.items())
    events.update(dict(right.items()))
    return Reaction(domain, events)


def concatenate(behavior: Behavior, reaction: Reaction, tag: Optional[Tag] = None) -> Behavior:
    """Concatenation ``b · r``: append a reaction after the end of a behavior."""
    if reaction.present_signals() - behavior.domain():
        missing = sorted(reaction.present_signals() - behavior.domain())
        raise ValueError(f"reaction mentions signals absent from the behavior: {missing}")
    existing = behavior.tags()
    if tag is None:
        tag = (existing[-1] + 1) if existing else 0
    elif existing and tag <= existing[-1]:
        raise ValueError(f"tag {tag} does not come after the behavior (last tag {existing[-1]})")
    rows: Dict[str, SignalTrace] = {}
    for name in behavior.names():
        trace = behavior[name]
        if name in reaction:
            trace = trace.append(tag, reaction.value(name))
        rows[name] = trace
    return Behavior(rows)
