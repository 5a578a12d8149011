"""Unit tests for the ROBDD engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.bdd import BDDManager


@pytest.fixture
def manager():
    return BDDManager(["a", "b", "c", "d"])


class TestBDDBasics:
    def test_terminals(self, manager):
        assert manager.true.is_true()
        assert manager.false.is_false()
        assert manager.true != manager.false

    def test_variable_and_negation(self, manager):
        a = manager.var("a")
        assert not a.is_terminal()
        assert (~a).iff(manager.nvar("a")).is_true()

    def test_hash_consing_makes_equal_functions_identical(self, manager):
        a, b = manager.var("a"), manager.var("b")
        left = (a & b) | (a & ~b)
        assert left == a
        assert ((a | b) & (a | ~b)) == a

    def test_and_or_laws(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a & manager.true) == a
        assert (a & manager.false).is_false()
        assert (a | manager.false) == a
        assert (a | manager.true).is_true()
        assert (a & b) == (b & a)

    def test_xor_iff_implies(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert (a ^ a).is_false()
        assert a.iff(a).is_true()
        assert a.implies(a | b).is_true()
        assert not a.implies(b).is_true()

    def test_ite(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        ite = a.ite(b, c)
        assert ite.restrict({"a": True}) == b
        assert ite.restrict({"a": False}) == c

    def test_bool_conversion_is_rejected(self, manager):
        with pytest.raises(TypeError):
            bool(manager.var("a"))


class TestBDDQueries:
    def test_restrict(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = a & b
        assert function.restrict({"a": True}) == b
        assert function.restrict({"a": False}).is_false()

    def test_exists_forall(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = a & b
        assert function.exists(["a"]) == b
        assert function.forall(["a"]).is_false()
        assert (a | b).forall(["a"]) == b

    def test_compose(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        function = a & b
        composed = function.compose({"a": c | b})
        assert composed == ((c | b) & b)

    def test_rename(self, manager):
        a = manager.var("a")
        renamed = (a & manager.var("b")).rename({"a": "c"})
        assert renamed == (manager.var("c") & manager.var("b"))

    def test_support(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        assert (a & b).support() == {"a", "b"}
        assert ((a & b) | (a & ~b)).support() == {"a"}
        assert manager.true.support() == frozenset()

    def test_satisfy_one(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assignment = (a & ~b).satisfy_one()
        assert assignment == {"a": True, "b": False}
        assert (a & ~a).satisfy_one() is None

    def test_satisfy_all_and_count(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = a | b
        assignments = list(function.satisfy_all(["a", "b"]))
        assert len(assignments) == 3
        assert function.count(["a", "b"]) == 3
        assert function.count(["a", "b", "c"]) == 6

    def test_count_requires_support_coverage(self, manager):
        a, b = manager.var("a"), manager.var("b")
        with pytest.raises(ValueError):
            (a & b).count(["a"])

    def test_evaluate(self, manager):
        a, b = manager.var("a"), manager.var("b")
        function = a.iff(b)
        assert function.evaluate({"a": True, "b": True})
        assert not function.evaluate({"a": True, "b": False})

    def test_node_count_is_reduced(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        assert (a & b & c).node_count() == 3

    def test_leq_and_equivalence(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert manager.leq(a & b, a)
        assert not manager.leq(a, a & b)
        assert manager.equivalent(a & b, b & a)


class TestManagerMaintenance:
    """Manager maintenance: GC, reordering, bounded caches."""

    def test_satisfy_all_is_output_sensitive(self):
        # one cube over 20 variables: the walk must not expand 2^20 candidates
        manager = BDDManager([f"v{i}" for i in range(20)])
        cube = manager.true
        for index in range(20):
            variable = manager.var(f"v{index}")
            cube = cube & (variable if index % 2 else ~variable)
        solutions = list(cube.satisfy_all([f"v{i}" for i in range(20)]))
        assert len(solutions) == 1
        assert solutions[0]["v1"] is True and solutions[0]["v0"] is False

    def test_satisfy_all_requires_support_coverage(self):
        # same violation, same exception type as count()
        manager = BDDManager(["a", "b"])
        function = manager.var("a") & manager.var("b")
        with pytest.raises(ValueError):
            list(function.satisfy_all(["a"]))

    def test_collect_garbage_compacts_and_preserves(self):
        manager = BDDManager(["a", "b", "c"])
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        kept = (a & b) | c
        for _ in range(5):
            _junk = (a ^ b) & (b ^ c)  # dead intermediate nodes
        before = manager.size()
        manager.collect_garbage([kept])
        assert manager.size() < before
        assert kept.evaluate({"a": True, "b": True, "c": False})
        assert not kept.evaluate({"a": True, "b": False, "c": False})
        assert manager.stats()["gc_runs"] == 1

    def test_reorder_preserves_functions(self):
        manager = BDDManager(["x0", "y0", "x1", "y1"])
        function = (manager.var("x0") & manager.var("y0")) | (
            manager.var("x1") & manager.var("y1")
        )
        manager.reorder(["x0", "x1", "y0", "y1"], [function])
        for bits in range(16):
            assignment = {
                "x0": bool(bits & 1),
                "y0": bool(bits & 2),
                "x1": bool(bits & 4),
                "y1": bool(bits & 8),
            }
            expected = (assignment["x0"] and assignment["y0"]) or (
                assignment["x1"] and assignment["y1"]
            )
            assert function.evaluate(assignment) == expected

    def test_computed_table_is_bounded(self):
        manager = BDDManager([f"v{i}" for i in range(12)], computed_table_limit=64)
        function = manager.false
        for index in range(11):
            function = function | (manager.var(f"v{index}") & manager.var(f"v{index + 1}"))
        assert manager.stats()["cache_evictions"] > 0
        assert len(manager._apply_cache) <= 64


# -- property tests -----------------------------------------------------------
#
# A random boolean function is a straight-line program: start from the
# declared variables, repeatedly combine two earlier results (or negate one).
# Deterministic, shrinkable, and it exercises sharing (earlier results are
# reused by later instructions).

_PROPERTY_VARIABLES = ("a", "b", "c", "d")

_programs = st.lists(
    st.tuples(
        st.sampled_from(("and", "or", "xor", "implies", "iff", "not")),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=16,
)


def _build(manager, program):
    pool = [manager.var(name) for name in _PROPERTY_VARIABLES]
    for operation, left_index, right_index in program:
        left = pool[left_index % len(pool)]
        right = pool[right_index % len(pool)]
        pool.append(~left if operation == "not" else manager.apply(operation, left, right))
    return pool[-1]


def _truth_table(manager, node):
    rows = []
    for bits in range(1 << len(_PROPERTY_VARIABLES)):
        assignment = {
            name: bool(bits & (1 << position))
            for position, name in enumerate(_PROPERTY_VARIABLES)
        }
        rows.append(manager.evaluate(node, assignment))
    return rows


class TestDumpRoundTripProperties:
    """Serialization survives the maintenance operations."""

    @given(program=_programs)
    @settings(max_examples=25, deadline=None)
    def test_round_trip_survives_collect_garbage(self, program):
        manager = BDDManager(_PROPERTY_VARIABLES)
        function = _build(manager, program)
        table = _truth_table(manager, function)
        payload_before = manager.dump([function])
        (function,) = manager.collect_garbage([function])
        payload_after = manager.dump([function])
        # the canonical dump is a function of the root *function*, so garbage
        # collection (which renumbers nodes) must not change a byte of it
        assert payload_after == payload_before
        loaded_manager, (root,) = BDDManager.load(payload_after)
        assert _truth_table(loaded_manager, root) == table
        assert loaded_manager.dump([root]) == payload_after

    @given(program=_programs, order=st.permutations(_PROPERTY_VARIABLES))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_survives_reorder(self, program, order):
        manager = BDDManager(_PROPERTY_VARIABLES)
        function = _build(manager, program)
        table = _truth_table(manager, function)
        (function,) = manager.reorder(order, [function])
        assert manager.variables() == tuple(order)
        payload = manager.dump([function])
        loaded_manager, (root,) = BDDManager.load(payload)
        assert _truth_table(loaded_manager, root) == table
        assert loaded_manager.dump([root]) == payload


def _assignments_over(names):
    for bits in range(1 << len(names)):
        yield {name: bool(bits & (1 << position)) for position, name in enumerate(names)}


class TestQuantificationProperties:
    """The relational-product kernel against brute-force quantification."""

    @given(
        left=_programs,
        right=_programs,
        quantified=st.sets(st.sampled_from(_PROPERTY_VARIABLES)),
    )
    @settings(max_examples=40, deadline=None)
    def test_and_exists_exists_forall_match_brute_force(self, left, right, quantified):
        manager = BDDManager(_PROPERTY_VARIABLES)
        f, g = _build(manager, left), _build(manager, right)
        product = manager.and_exists(f, g, quantified)
        some = manager.exists(f, quantified)
        every = manager.forall(f, quantified)
        assert manager.support(product) <= set(_PROPERTY_VARIABLES) - quantified
        for assignment in _assignments_over(_PROPERTY_VARIABLES):
            witnesses = [
                {**assignment, **choice} for choice in _assignments_over(sorted(quantified))
            ]
            assert manager.evaluate(product, assignment) == any(
                manager.evaluate(f, w) and manager.evaluate(g, w) for w in witnesses
            )
            assert manager.evaluate(some, assignment) == any(
                manager.evaluate(f, w) for w in witnesses
            )
            assert manager.evaluate(every, assignment) == all(
                manager.evaluate(f, w) for w in witnesses
            )

    @pytest.mark.parametrize("order", ["order-preserving", "order-changing"])
    @given(program=_programs, sources=st.sets(st.sampled_from(_PROPERTY_VARIABLES), min_size=2))
    @settings(max_examples=30, deadline=None)
    def test_rename_equals_compose_with_variables(self, order, program, sources):
        # each variable x is followed by its fresh copy x' in the order, so
        # x -> x' keeps the support's level order and the reverse pairing
        # of the copies does not
        interleaved = [name for base in _PROPERTY_VARIABLES for name in (base, base + "'")]
        manager = BDDManager(interleaved)
        function = _build(manager, program)
        ordered = sorted(sources)
        targets = [name + "'" for name in ordered]
        if order == "order-changing":
            targets.reverse()
        renaming = dict(zip(ordered, targets))
        ite_before = manager.stats()["ite_cache"]
        renamed = manager.rename(function, renaming)
        if order == "order-preserving":
            assert manager.stats()["ite_cache"] == ite_before, "one relabelling walk, no compose"
        composed = manager.compose(
            function, {source: manager.var(target) for source, target in renaming.items()}
        )
        assert renamed == composed
        for assignment in _assignments_over(interleaved):
            moved = {**assignment, **{s: assignment[t] for s, t in renaming.items()}}
            assert manager.evaluate(renamed, assignment) == manager.evaluate(function, moved)


class TestNonConstructiveDecisions:
    """leq / intersects / satisfy_one_and against the conjunction they avoid."""

    @given(left=_programs, right=_programs, same=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_decisions_match_the_constructive_answers(self, left, right, same):
        manager = BDDManager(_PROPERTY_VARIABLES)
        f = _build(manager, left)
        g = f if same else _build(manager, right)
        size = manager.size()
        below = manager.leq(f, g)
        meets = manager.intersects(f, g)
        witness = manager.satisfy_one_and(f, g)
        assert manager.size() == size, "a decision interned a node"
        assert below == f.implies(g).is_true()
        assert meets == (f & g).is_satisfiable()
        assert witness == (f & g).satisfy_one()

    def test_satisfy_one_and_skips_levels_the_conjunction_does_not_test(self, manager):
        # (a ∨ b) ∧ (a ∨ ¬b) = a: the conjunction has no b node, so the
        # witness must not pin b even though both operands test it
        a, b = manager.var("a"), manager.var("b")
        f, g = a | b, a | ~b
        assert manager.satisfy_one_and(f, g) == (f & g).satisfy_one() == {"a": True}
        assert manager.satisfy_one_and(a, ~a) is None

    def test_decision_caches_are_cleared_with_the_computed_tables(self, manager):
        a, b = manager.var("a"), manager.var("b")
        assert manager.leq(a & b, a)
        assert manager.support(a & b) == {"a", "b"}
        assert manager.stats()["meets_cache"] > 0
        assert manager.stats()["support_cache"] > 0
        manager.clear_caches()
        assert manager.stats()["meets_cache"] == 0
        assert manager.stats()["support_cache"] == 0


class TestSatisfyAllEdgeCases:
    """satisfy_all / satisfy_matrix corner cases."""

    @pytest.fixture
    def edge_manager(self):
        return BDDManager(["a", "b", "c"])

    def test_constant_true_enumerates_the_full_cube(self, edge_manager):
        rows = list(edge_manager.true.satisfy_all(["a", "b"]))
        assert rows == [
            {"a": False, "b": False},
            {"a": False, "b": True},
            {"a": True, "b": False},
            {"a": True, "b": True},
        ]
        assert edge_manager.satisfy_matrix(edge_manager.true, ["a", "b"]) == [
            [False, False],
            [False, True],
            [True, False],
            [True, True],
        ]

    def test_constant_false_enumerates_nothing(self, edge_manager):
        assert list(edge_manager.false.satisfy_all(["a", "b"])) == []
        assert edge_manager.satisfy_matrix(edge_manager.false, ["a", "b"]) == []

    def test_queried_variable_outside_the_support_expands_both_ways(self, edge_manager):
        function = edge_manager.var("a") & edge_manager.var("c")
        rows = list(function.satisfy_all(["a", "b", "c"]))
        # "b" is declared but not in the support: it is a don't-care, and the
        # enumeration expands it in level order, False branch first
        assert rows == [
            {"a": True, "b": False, "c": True},
            {"a": True, "b": True, "c": True},
        ]
        assert edge_manager.satisfy_matrix(function, ["a", "b", "c"]) == [
            [True, False, True],
            [True, True, True],
        ]

    def test_undeclared_queried_variable_expands_last(self, edge_manager):
        function = edge_manager.var("a")
        # "z" was never declared: it sits below every real level, so it
        # varies fastest — and both enumeration forms agree on that
        assert edge_manager.satisfy_matrix(function, ["a", "z"]) == [
            [True, False],
            [True, True],
        ]
        assert list(function.satisfy_all(["a", "z"])) == [
            {"a": True, "z": False},
            {"a": True, "z": True},
        ]

    def test_satisfy_matrix_requires_support_coverage(self, edge_manager):
        function = edge_manager.var("a") & edge_manager.var("b")
        with pytest.raises(ValueError):
            edge_manager.satisfy_matrix(function, ["a"])


class TestSatisfyMatrixProperties:
    """satisfy_matrix fills its rows in one walk; satisfy_all is the oracle."""

    @given(
        program=_programs,
        columns=st.permutations(_PROPERTY_VARIABLES + ("e", "zz", "y")),
        width=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_satisfy_all_in_order(self, program, columns, width):
        # "e" is declared but in no program's support; "zz" and "y" are
        # names the manager never declared
        manager = BDDManager(_PROPERTY_VARIABLES + ("e",))
        function = _build(manager, program)
        names = list(columns[:width])
        if not manager.support(function) <= set(names):
            with pytest.raises(ValueError, match="cover the support"):
                manager.satisfy_matrix(function, names)
            return
        expected = [
            [assignment[name] for name in names]
            for assignment in manager.satisfy_all(function, names)
        ]
        assert manager.satisfy_matrix(function, names) == expected
