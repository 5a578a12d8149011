"""Hash-consing of model-checking states.

The engines of :mod:`repro.mc` key dictionaries and sets by state — the
register-valuation tuple of the boolean abstraction — millions of times on
large explorations, and the on-the-fly product flattens *component* states
into the same tuples over and over.  Interning returns one canonical tuple
per valuation, so repeated hashing reuses the tuple's cached hash and
equality checks inside dict probes are pointer comparisons on the common
path.  (:class:`~repro.mocc.reactions.Reaction` has the matching
:meth:`~repro.mocc.reactions.Reaction.interned` constructor.)
"""

from __future__ import annotations

from typing import Dict, Tuple

State = Tuple[Tuple[str, object], ...]

_STATES: Dict[State, State] = {}

#: bound on the intern table: cleared on overflow (interning is a pure
#: optimization — tuple equality and hashing never depend on the table)
INTERN_TABLE_LIMIT = 1 << 20


def intern_state(state: State) -> State:
    """The canonical shared tuple for this register valuation."""
    existing = _STATES.get(state)
    if existing is not None:
        return existing
    if len(_STATES) >= INTERN_TABLE_LIMIT:
        _STATES.clear()
    _STATES[state] = state
    return state
