"""Polychronous model of computation.

This package implements the tagged-signal model underlying Signal and
Polychrony, as presented in Section 2.1 of the paper: tags and chains,
events, signal traces, behaviors, reactions and (denotational) processes,
together with the equivalences (clock equivalence, flow equivalence) and
compositions (synchronous ``|`` and asynchronous ``||``) used to state
endochrony, weak endochrony and isochrony.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Tag": ".tags",
    "TagSupply": ".tags",
    "chain_of": ".tags",
    "is_chain": ".tags",
    "SignalTrace": ".signals",
    "Behavior": ".behaviors",
    "clock_equivalent": ".behaviors",
    "flow_equivalent": ".behaviors",
    "is_stretching": ".behaviors",
    "is_relaxation": ".behaviors",
    "Reaction": ".reactions",
    "independent": ".reactions",
    "merge_reactions": ".reactions",
    "clear_interned_states": ".interning",
    "intern_state": ".interning",
    "interned_state_count": ".interning",
    "DenotationalProcess": ".processes",
    "synchronous_composition": ".processes",
    "asynchronous_composition": ".processes",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Tag",
    "TagSupply",
    "chain_of",
    "is_chain",
    "SignalTrace",
    "Behavior",
    "clock_equivalent",
    "flow_equivalent",
    "is_stretching",
    "is_relaxation",
    "Reaction",
    "independent",
    "merge_reactions",
    "intern_state",
    "clear_interned_states",
    "interned_state_count",
    "DenotationalProcess",
    "synchronous_composition",
    "asynchronous_composition",
]
