"""The explicit engine's per-state tables against the list scans they replaced.

:class:`~repro.mc.onthefly.StateTable` serves every query of the Definition 2
axioms and of the Section 4.1 invariants from indexes built once per state.
The reference implementations below are the list-scan versions those
indexes replaced — every successor query scans the state's transitions and
compares reactions with ``Reaction.__eq__``, every axiom builds the
``Reaction`` it looks up — kept here verbatim as the oracle.  On generated
designs both must give the same verdict, the same failing axiom or
invariant, the same counterexample text, the same visited states and
transitions, and leave the engine with the same exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Design
from repro.api.backends import _engine
from repro.gen.topologies import (
    arbiter_tree,
    crossbar,
    independent_components,
    sample_design,
)
from repro.mc.invariants import check_weak_endochrony_invariants
from repro.mc.onthefly import InvariantResult, OnTheFlyChecker
from repro.mocc.reactions import Reaction, independent, merge_reactions
from repro.properties.weak_endochrony import check_weak_endochrony

# ---------------------------------------------------------------------------
# Reference: the list scans
# ---------------------------------------------------------------------------


class _ScanView:
    """The checker queries as transition scans (the reference semantics)."""

    def __init__(self, checker: OnTheFlyChecker):
        self.checker = checker

    def iter_states(self):
        return self.checker.iter_states()

    def transitions_from(self, state):
        return list(self.checker.transitions_from(state))

    def reactions_from(self, state):
        return [transition.reaction for transition in self.transitions_from(state)]

    def non_silent_reactions_from(self, state):
        return [reaction for reaction in self.reactions_from(state) if not reaction.is_silent()]

    def successor(self, state, reaction):
        for transition in self.transitions_from(state):
            if transition.reaction == reaction:
                return transition.target
        return None

    def enables(self, state, reaction):
        return self.successor(state, reaction) is not None


def _ref_determinism_at(checker, state):
    seen = {}
    for transition in checker.transitions_from(state):
        previous = seen.get(transition.reaction)
        if previous is not None and previous != transition.target:
            return InvariantResult(
                "determinism",
                False,
                f"reaction {transition.reaction} from {dict(state)} has two successors",
            )
        seen[transition.reaction] = transition.target
    return None


def _ref_axiom_2a_at(checker, state):
    for first in checker.non_silent_reactions_from(state):
        successor = checker.successor(state, first)
        if successor is None:
            continue
        for second in checker.non_silent_reactions_from(successor):
            if not independent(first, second):
                continue
            if not checker.enables(state, second):
                return InvariantResult(
                    "axiom 2a (commutation)",
                    False,
                    f"from state {dict(state)}, {second} is possible after {first} "
                    f"but not before it",
                )
    return None


def _ref_axiom_2b_at(checker, state):
    enabled = checker.non_silent_reactions_from(state)
    for index, first in enumerate(enabled):
        for second in enabled[index + 1 :]:
            if not independent(first, second):
                continue
            merged = merge_reactions(first, second)
            if not checker.enables(state, merged):
                return InvariantResult(
                    "axiom 2b (merge)",
                    False,
                    f"from state {dict(state)}, {first} and {second} are enabled "
                    f"but their union is not",
                )
    return None


def _ref_split_candidates(reaction, other):
    common = {
        name
        for name in reaction.present_signals() & other.present_signals()
        if reaction.value(name) == other.value(name)
    }
    if not common:
        return None
    return Reaction(reaction.domain, {name: reaction.value(name) for name in common})


def _ref_axiom_2c_at(checker, state):
    name = "axiom 2c (decomposition)"
    enabled = checker.non_silent_reactions_from(state)
    for index, first_union in enumerate(enabled):
        for second_union in enabled[index + 1 :]:
            core = _ref_split_candidates(first_union, second_union)
            if core is None:
                continue
            if core == first_union or core == second_union:
                continue
            rest_first = Reaction(
                first_union.domain,
                {
                    name_: first_union.value(name_)
                    for name_ in first_union.present_signals() - core.present_signals()
                },
            )
            rest_second = Reaction(
                second_union.domain,
                {
                    name_: second_union.value(name_)
                    for name_ in second_union.present_signals() - core.present_signals()
                },
            )
            if rest_first.is_silent() or rest_second.is_silent():
                continue
            if not independent(rest_first, rest_second):
                continue
            if not checker.enables(state, core):
                return InvariantResult(
                    name,
                    False,
                    f"from state {dict(state)}, the common part {core} of two enabled "
                    f"reactions is not itself enabled",
                )
            after_core = checker.successor(state, core)
            if after_core is None:
                continue
            for rest in (rest_first, rest_second):
                if not checker.enables(after_core, rest):
                    return InvariantResult(
                        name,
                        False,
                        f"from state {dict(state)}, {core} cannot be followed by {rest} "
                        f"although their union is enabled",
                    )
    return None


_REF_AXIOMS = (
    ("determinism", _ref_determinism_at),
    ("axiom 2a (commutation)", _ref_axiom_2a_at),
    ("axiom 2b (merge)", _ref_axiom_2b_at),
    ("axiom 2c (decomposition)", _ref_axiom_2c_at),
)


@dataclass
class _Outcome:
    """What a check reports: comparable field by field."""

    holds: bool
    results: List[Tuple[str, bool, Optional[str]]]
    states: int
    transitions: int


def _reference_axioms(checker: OnTheFlyChecker) -> _Outcome:
    view = _ScanView(checker)
    states = transitions = 0
    for state in view.iter_states():
        states += 1
        transitions += len(view.transitions_from(state))
        for _name, axiom_at in _REF_AXIOMS:
            violation = axiom_at(view, state)
            if violation is not None:
                return _Outcome(False, [_triple(violation)], states, transitions)
    results = [(name, True, None) for name, _axiom_at in _REF_AXIOMS]
    return _Outcome(True, results, states, transitions)


def _ref_reactions_with(checker, state, present, absent):
    return [
        reaction
        for reaction in checker.reactions_from(state)
        if present in reaction.present_signals() and absent not in reaction.present_signals()
    ]


def _ref_reactions_with_both(checker, state, first, second):
    return [
        reaction
        for reaction in checker.reactions_from(state)
        if first in reaction.present_signals() and second in reaction.present_signals()
    ]


def _ref_state_independent(checker, x, y):
    name = f"StateIndependent({x}, {y})"
    for state in checker.iter_states():
        for first in _ref_reactions_with(checker, state, x, y):
            successor = checker.successor(state, first)
            if successor is None:
                continue
            y_after = _ref_reactions_with(checker, successor, y, x)
            if not y_after:
                continue
            if not _ref_reactions_with_both(checker, state, x, y):
                return InvariantResult(
                    name,
                    False,
                    f"in state {dict(state)}, {x} then {y} is possible but not {x} and {y} together",
                )
    return InvariantResult(name, True)


def _ref_order_independent(checker, x, y):
    name = f"OrderIndependent({x}, {y})"
    for state in checker.iter_states():
        x_alone = _ref_reactions_with(checker, state, x, y)
        y_alone = _ref_reactions_with(checker, state, y, x)
        if x_alone and y_alone and not _ref_reactions_with_both(checker, state, x, y):
            return InvariantResult(
                name,
                False,
                f"in state {dict(state)}, {x} and {y} are enabled separately but never together",
            )
    return InvariantResult(name, True)


def _ref_flow_independent(checker, x, y, z):
    name = f"FlowIndependent({x}, {y}, {z})"
    for state in checker.iter_states():
        x_alone = _ref_reactions_with(checker, state, x, y)
        y_alone = _ref_reactions_with(checker, state, y, x)
        if not (x_alone and y_alone):
            continue
        z_now = any(z in reaction.present_signals() for reaction in checker.reactions_from(state))
        if not z_now:
            continue
        for first in x_alone + y_alone:
            successor = checker.successor(state, first)
            if successor is None:
                continue
            if z in first.present_signals():
                continue
            z_later = any(
                z in reaction.present_signals() for reaction in checker.reactions_from(successor)
            )
            if not z_later:
                return InvariantResult(
                    name,
                    False,
                    f"in state {dict(state)}, producing {sorted(first.present_signals())} first "
                    f"makes {z} unavailable",
                )
    return InvariantResult(name, True)


class _RefQueryView:
    """The reference query view: visited-state accounting over scans."""

    def __init__(self, checker: OnTheFlyChecker):
        self.checker = checker
        self.visited: Dict[object, int] = {}

    def _transitions_from(self, state):
        transitions = list(self.checker.transitions_from(state))
        self.visited.setdefault(state, len(transitions))
        return transitions

    def iter_states(self):
        for state in self.checker.iter_states():
            self._transitions_from(state)
            yield state

    def reactions_from(self, state):
        return [transition.reaction for transition in self._transitions_from(state)]

    def successor(self, state, reaction):
        for transition in self._transitions_from(state):
            if transition.reaction == reaction:
                return transition.target
        return None


def _reference_invariants(checker: OnTheFlyChecker, root_signals, flow_signals) -> _Outcome:
    view = _RefQueryView(checker)
    representatives = [signals[0] for signals in root_signals if signals]
    results: List[InvariantResult] = []

    def checks():
        for index, x in enumerate(representatives):
            for y in representatives[index + 1 :]:
                yield _ref_state_independent(view, x, y)
                yield _ref_order_independent(view, x, y)
                for z in flow_signals:
                    if z not in (x, y):
                        yield _ref_flow_independent(view, x, y, z)

    for result in checks():
        results.append(result)
        if not result.holds:
            break
    return _Outcome(
        all(result.holds for result in results),
        [_triple(result) for result in results],
        len(view.visited),
        sum(view.visited.values()),
    )


def _triple(result: InvariantResult) -> Tuple[str, bool, Optional[str]]:
    return (result.name, result.holds, result.counterexample)


# ---------------------------------------------------------------------------
# The tables against the reference
# ---------------------------------------------------------------------------


def _axioms(checker: OnTheFlyChecker, name: str = "subject") -> _Outcome:
    report = check_weak_endochrony(_Named(name), checker=checker)
    return _Outcome(
        report.holds(),
        [_triple(result) for result in report.results],
        report.states_explored,
        report.transitions_explored,
    )


def _invariants(checker: OnTheFlyChecker, root_signals, flow_signals) -> _Outcome:
    report = check_weak_endochrony_invariants(checker, root_signals, flow_signals)
    return _Outcome(
        report.holds(),
        [_triple(result) for result in report.results],
        report.states_explored,
        report.transitions_explored,
    )


@dataclass
class _Named:
    """The one field of a process the axiom driver reads when given a checker."""

    name: str


def _exploration(checker: OnTheFlyChecker):
    return (
        checker.states_expanded,
        checker.transitions_expanded,
        list(checker._order),
        checker.truncated,
    )


def _assert_equivalent(make_design, engine: str, max_states: int) -> None:
    """Fresh engines per side: the check and the reference must agree on
    everything they report and on the exploration they leave behind."""

    def fresh() -> Tuple[Design, OnTheFlyChecker]:
        design = make_design()
        return design, _engine(design, max_states, engine)

    _, checker = fresh()
    _, reference = fresh()
    assert _axioms(checker) == _reference_axioms(reference)
    assert _exploration(checker) == _exploration(reference)

    design, checker = fresh()
    _, reference = fresh()
    roots = design.analysis.hierarchy.root_signals()
    flows = tuple(design.composition.outputs)
    assert _invariants(checker, roots, flows) == _reference_invariants(reference, roots, flows)
    assert _exploration(checker) == _exploration(reference)


_FAMILIES = {
    "independent_3": lambda: independent_components(3),
    "independent_4": lambda: independent_components(4),
    "crossbar_2_2": lambda: crossbar(2, 2),
    "arbiter_tree_2": lambda: arbiter_tree(2),
}


def _family_design(family: str):
    def make() -> Design:
        components, composition = _FAMILIES[family]()
        return Design(name=composition.name, components=components)

    return make


@pytest.mark.parametrize("engine", ["compiled", "interpreter"])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_tables_match_the_scans_on_families(family, engine):
    _assert_equivalent(_family_design(family), engine, max_states=256)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_tables_match_the_scans_under_a_state_bound(family):
    # a bound cuts targets the axioms and invariants still expand
    _assert_equivalent(_family_design(family), "compiled", max_states=3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), bounded=st.booleans())
def test_tables_match_the_scans_on_sampled_designs(seed, bounded):
    generated = sample_design(seed)
    _assert_equivalent(
        lambda: Design.from_generated(generated), "compiled", max_states=4 if bounded else 256
    )


def test_every_engine_reaction_shares_one_domain():
    """The invariant that makes item sets a sound reaction key."""
    for make in [_family_design(family) for family in sorted(_FAMILIES)] + [
        (lambda generated: lambda: Design.from_generated(generated))(sample_design(seed))
        for seed in range(30)
    ]:
        for engine in ("compiled", "interpreter"):
            checker = _engine(make(), 256, engine)
            domains = {
                transition.reaction.domain
                for state in checker.iter_states()
                for transition in checker.transitions_from(state)
            }
            assert len(domains) <= 1
            assert domains <= {checker.domain}


# ---------------------------------------------------------------------------
# Hand-built LTSs: one violation per axiom and per invariant
# ---------------------------------------------------------------------------


class _HandLTS:
    """A lazy LTS given by its edges: ``{state: [(events, target), ...]}``."""

    process_name = "hand"

    def __init__(self, edges, domain=("a", "b", "c")):
        self.initial = _s(0)
        self._edges = {
            _s(source): tuple((Reaction(domain, events), _s(target)) for events, target in out)
            for source, out in edges.items()
        }

    def successors(self, state):
        return self._edges.get(state, ())


def _s(index: int):
    return (("s", index),)


def _both(edges, domain=("a", "b", "c")):
    return OnTheFlyChecker(_HandLTS(edges, domain)), OnTheFlyChecker(_HandLTS(edges, domain))


A, B, C = {"a": True}, {"b": True}, {"c": True}

_AXIOM_VIOLATIONS = {
    "determinism": (
        {0: [(A, 1), (A, 2)]},
        "reaction Reaction(a=True) from {'s': 0} has two successors",
    ),
    "axiom 2a (commutation)": (
        {0: [(A, 1)], 1: [(B, 0)]},
        "from state {'s': 0}, Reaction(b=True) is possible after Reaction(a=True) "
        "but not before it",
    ),
    "axiom 2b (merge)": (
        {0: [(A, 1), (B, 2)]},
        "from state {'s': 0}, Reaction(a=True) and Reaction(b=True) are enabled "
        "but their union is not",
    ),
    "axiom 2c (decomposition)": (
        {0: [({"a": True, "b": True}, 1), ({"a": True, "c": True}, 2)]},
        "from state {'s': 0}, the common part Reaction(a=True) of two enabled "
        "reactions is not itself enabled",
    ),
}


@pytest.mark.parametrize("axiom", sorted(_AXIOM_VIOLATIONS))
def test_each_axiom_has_a_violating_lts(axiom):
    edges, counterexample = _AXIOM_VIOLATIONS[axiom]
    checker, reference = _both(edges)
    outcome = _axioms(checker, "hand")
    assert outcome == _reference_axioms(reference)
    assert outcome.results == [(axiom, False, counterexample)]


def test_axiom_2c_core_that_cannot_be_followed_by_a_remainder():
    edges = {0: [({"a": True, "b": True}, 1), ({"a": True, "c": True}, 2), (A, 3)]}
    checker, reference = _both(edges)
    outcome = _axioms(checker, "hand")
    assert outcome == _reference_axioms(reference)
    assert outcome.results == [
        (
            "axiom 2c (decomposition)",
            False,
            "from state {'s': 0}, Reaction(a=True) cannot be followed by "
            "Reaction(b=True) although their union is enabled",
        )
    ]


def test_axiom_2c_prints_the_core_and_each_remainder_with_their_unions_values():
    # the unions agree on ``a`` as True and 1: the core is printed with the
    # first union's value, the second remainder with the second union's
    edges = {
        0: [
            ({"a": True, "b": False}, 1),
            ({"a": 1, "c": 0}, 2),
            (A, 3),
            ({"b": False}, 4),
            ({"a": True, "b": False, "c": False}, 5),
        ],
        3: [({"b": False}, 1)],
    }
    checker, reference = _both(edges)
    outcome = _axioms(checker, "hand")
    assert outcome == _reference_axioms(reference)
    assert outcome.results == [
        (
            "axiom 2c (decomposition)",
            False,
            "from state {'s': 0}, Reaction(a=True) cannot be followed by "
            "Reaction(c=0) although their union is enabled",
        )
    ]


_XYZ = ("x", "y", "z")
X, Y, Z = {"x": True}, {"y": True}, {"z": True}

_INVARIANT_VIOLATIONS = {
    "StateIndependent(x, y)": (
        {0: [(X, 1)], 1: [(Y, 0)]},
        "in state {'s': 0}, x then y is possible but not x and y together",
    ),
    "OrderIndependent(x, y)": (
        {0: [(X, 1), (Y, 2)]},
        "in state {'s': 0}, x and y are enabled separately but never together",
    ),
    "FlowIndependent(x, y, z)": (
        {0: [(X, 1), (Y, 2), ({"x": True, "y": True}, 3), (Z, 0)]},
        "in state {'s': 0}, producing ['x'] first makes z unavailable",
    ),
}


@pytest.mark.parametrize("invariant", sorted(_INVARIANT_VIOLATIONS))
def test_each_invariant_has_a_violating_lts(invariant):
    edges, counterexample = _INVARIANT_VIOLATIONS[invariant]
    checker, reference = _both(edges, _XYZ)
    roots, flows = [["x"], ["y"]], ["z"]
    outcome = _invariants(checker, roots, flows)
    assert outcome == _reference_invariants(reference, roots, flows)
    assert outcome.results[-1] == (invariant, False, counterexample)
    assert _exploration(checker) == _exploration(reference)


def test_successor_is_the_first_transition_with_the_reaction():
    # ``x`` alone leads to s1 first and s2 second; a scan stops at s1, so
    # StateIndependent never looks at s2's ``y`` and holds.  A last-wins
    # index would follow ``x`` to s2 and report a failure.
    edges = {0: [(X, 1), (X, 2)], 2: [(Y, 0)]}
    checker, reference = _both(edges, _XYZ)
    assert checker.successor(_s(0), Reaction(_XYZ, X)) == _s(1)
    outcome = _invariants(checker, [["x"], ["y"]], [])
    assert outcome == _reference_invariants(reference, [["x"], ["y"]], [])
    assert outcome.holds
    assert checker.table(_s(0)).conflict == Reaction(_XYZ, X)


def test_item_sets_refuse_a_reaction_of_another_domain():
    lts = _HandLTS({0: [(A, 0)]})
    lts._edges[_s(1)] = ((Reaction(("a", "b"), A), _s(0)),)
    lts._edges[_s(0)] += ((Reaction(("a", "b", "c"), B), _s(1)),)
    checker = OnTheFlyChecker(lts)
    assert checker.table(_s(0)).item_targets
    with pytest.raises(ValueError, match="domain"):
        checker.table(_s(1)).item_targets
