"""A hash-consed Reduced Ordered BDD manager.

The implementation follows the classical Bryant construction:

* nodes are triples ``(level, low, high)`` interned in a unique table, so
  structural equality is pointer equality;
* boolean operations go through a memoized Shannon expansion (``apply``);
* quantification is one kernel operation, the relational product
  ``and_exists(f, g, V)`` = ∃V.(f ∧ g) computed in a single memoized pass
  (Brace–Rudell–Bryant, DAC 1990; CUDD's ``Cudd_bddAndAbstract``) —
  ``exists`` and ``forall`` are its special cases, and it is the image
  operator of the symbolic model checker;
* ``rename`` relabels levels in one walk when the renaming keeps the
  support's level order, and falls back to ``compose`` (substitution of
  variables by functions) otherwise;
* restriction (cofactors) and satisfying-assignment enumeration complete
  what the clock calculus and the symbolic model checker need;
* three *non-constructive* decision procedures answer questions about a
  conjunction without building it (Bryant, IEEE TC 1986; CUDD's
  ``Cudd_bddLeq`` / ``Cudd_bddIntersect``): ``leq(f, g)`` decides
  ``f ≤ g`` and stops at the first counterexample, ``intersects(f, g)``
  decides whether ``f ∧ g`` is satisfiable and stops at the first
  witness, and ``satisfy_one_and(f, g)`` returns exactly the assignment
  ``(f & g).satisfy_one()`` would.  All three share one memoized
  recursion and intern no node, so the entailment queries of the clock
  calculus (``R ⊨ c`` is ``leq(R, c)``) leave the unique table untouched.

Variables are referred to by name; their order is the order of registration
with :meth:`BDDManager.declare` (callers that care about ordering declare
variables explicitly up front).  The order can be revised after the fact
with :meth:`BDDManager.reorder` (an explicit permutation) or
:meth:`BDDManager.sift` (Rudell's sifting heuristic); both rebuild the
graphs of the roots they are given and invalidate every other handle, so
they are meant for managers with a single owner — the compiled reaction
engine of :mod:`repro.mc.compiled` runs them right after compilation.

Three performance features keep long-lived managers healthy:

* the computed tables (``apply`` / ``ite`` / ``and_exists`` / the decision
  table of ``leq`` and ``intersects`` / the per-node ``support`` memo) are
  *bounded*: past ``computed_table_limit`` entries they are cleared rather
  than growing without bound (the classical cache-flush eviction policy);
* :meth:`BDDManager.collect_garbage` drops every node not reachable from a
  given set of roots and compacts the unique table;
* :meth:`BDDManager.satisfy_all` enumerates satisfying assignments by
  walking the DAG — its cost is proportional to the number of solutions
  (output-sensitive), not to ``2^n`` over the variables.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple


class BDD:
    """A node of a reduced ordered BDD (or one of the two terminals)."""

    __slots__ = ("manager", "index")

    def __init__(self, manager: "BDDManager", index: int):
        self.manager = manager
        self.index = index

    # -- structural queries -----------------------------------------------
    def is_true(self) -> bool:
        return self.index == BDDManager.TRUE_INDEX

    def is_false(self) -> bool:
        return self.index == BDDManager.FALSE_INDEX

    def is_terminal(self) -> bool:
        return self.index in (BDDManager.TRUE_INDEX, BDDManager.FALSE_INDEX)

    @property
    def level(self) -> int:
        return self.manager.node_level(self.index)

    @property
    def variable(self) -> str:
        return self.manager.level_name(self.level)

    @property
    def low(self) -> "BDD":
        return BDD(self.manager, self.manager.node_low(self.index))

    @property
    def high(self) -> "BDD":
        return BDD(self.manager, self.manager.node_high(self.index))

    # -- boolean operations -------------------------------------------------
    def __invert__(self) -> "BDD":
        return self.manager.negate(self)

    def __and__(self, other: "BDD") -> "BDD":
        return self.manager.apply("and", self, other)

    def __or__(self, other: "BDD") -> "BDD":
        return self.manager.apply("or", self, other)

    def __xor__(self, other: "BDD") -> "BDD":
        return self.manager.apply("xor", self, other)

    def implies(self, other: "BDD") -> "BDD":
        return self.manager.apply("implies", self, other)

    def iff(self, other: "BDD") -> "BDD":
        return self.manager.apply("iff", self, other)

    def diff(self, other: "BDD") -> "BDD":
        """Set difference: ``self & ~other``."""
        return self & ~other

    def ite(self, then_branch: "BDD", else_branch: "BDD") -> "BDD":
        return self.manager.ite(self, then_branch, else_branch)

    # -- quantification and substitution -------------------------------------
    def restrict(self, assignment: Mapping[str, bool]) -> "BDD":
        return self.manager.restrict(self, assignment)

    def exists(self, variables: Iterable[str]) -> "BDD":
        return self.manager.exists(self, variables)

    def and_exists(self, other: "BDD", variables: Iterable[str]) -> "BDD":
        return self.manager.and_exists(self, other, variables)

    def forall(self, variables: Iterable[str]) -> "BDD":
        return self.manager.forall(self, variables)

    def compose(self, substitution: Mapping[str, "BDD"]) -> "BDD":
        return self.manager.compose(self, substitution)

    def rename(self, renaming: Mapping[str, str]) -> "BDD":
        return self.manager.rename(self, renaming)

    # -- queries --------------------------------------------------------------
    def support(self) -> FrozenSet[str]:
        return self.manager.support(self)

    def is_satisfiable(self) -> bool:
        return not self.is_false()

    def is_tautology(self) -> bool:
        return self.is_true()

    def satisfy_one(self) -> Optional[Dict[str, bool]]:
        return self.manager.satisfy_one(self)

    def satisfy_all(self, variables: Optional[Sequence[str]] = None) -> Iterator[Dict[str, bool]]:
        return self.manager.satisfy_all(self, variables)

    def satisfy_matrix(self, variables: Sequence[str]) -> List[List[bool]]:
        return self.manager.satisfy_matrix(self, variables)

    def count(self, variables: Optional[Sequence[str]] = None) -> int:
        return self.manager.count(self, variables)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.manager.evaluate(self, assignment)

    def node_count(self) -> int:
        return self.manager.node_count(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BDD):
            return NotImplemented
        return self.manager is other.manager and self.index == other.index

    def __hash__(self) -> int:
        return hash((id(self.manager), self.index))

    def __bool__(self) -> bool:
        raise TypeError(
            "BDDs cannot be used as Python booleans; use is_true(), is_false() or is_satisfiable()"
        )

    def __repr__(self) -> str:
        if self.is_true():
            return "BDD(TRUE)"
        if self.is_false():
            return "BDD(FALSE)"
        return f"BDD(var={self.variable!r}, nodes={self.node_count()})"


class BDDManager:
    """Owner of the unique table, the computed-table cache and the variable order.

    Beyond the truth tables, callers rely on three observable guarantees:

    * **non-construction** — :meth:`leq`, :meth:`intersects` and
      :meth:`satisfy_one_and` read only the node lists and leave
      :meth:`size` unchanged;
    * **enumeration order** — :meth:`satisfy_all` and :meth:`satisfy_matrix`
      yield assignments in manager level order, ``False`` branch before
      ``True``;
    * **canonical serialization** — :meth:`dump` payloads depend on the
      root functions and the variable order only (see :meth:`dump`).
    """

    FALSE_INDEX = 0
    TRUE_INDEX = 1

    #: level sentinel used by the two terminal nodes
    TERMINAL_LEVEL = 2**30

    def __init__(self, variables: Iterable[str] = (), computed_table_limit: int = 1 << 20):
        # nodes[i] = (level, low, high); terminals use level = a large sentinel
        self._levels: List[int] = [self.TERMINAL_LEVEL, self.TERMINAL_LEVEL]
        self._lows: List[int] = [0, 1]
        self._highs: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple[str, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._and_exists_cache: Dict[Tuple[int, int, FrozenSet[int]], int] = {}
        self._meets_cache: Dict[Tuple[int, int, int], bool] = {}
        self._support_cache: Dict[int, FrozenSet[str]] = {}
        self._names: List[str] = []
        self._levels_by_name: Dict[str, int] = {}
        #: past this many computed-table entries the caches are flushed
        self.computed_table_limit = computed_table_limit
        self.cache_evictions = 0
        self.gc_runs = 0
        self.reorder_runs = 0
        # kernel profiling counters (surfaced per-span by repro.obs)
        self.apply_calls = 0
        self.apply_cache_lookups = 0
        self.apply_cache_hits = 0
        self.and_exists_calls = 0
        self.and_exists_cache_lookups = 0
        self.and_exists_cache_hits = 0
        self.rename_calls = 0
        self.leq_calls = 0
        self.leq_cache_hits = 0
        self.intersects_calls = 0
        self.intersects_cache_hits = 0
        self._meets_cache_hits = 0
        self.peak_nodes = 2
        self.sift_seconds = 0.0
        for name in variables:
            self.declare(name)

    # -- variables -----------------------------------------------------------
    def declare(self, name: str) -> int:
        """Register a variable (idempotent) and return its level."""
        if name not in self._levels_by_name:
            self._levels_by_name[name] = len(self._names)
            self._names.append(name)
        return self._levels_by_name[name]

    def variables(self) -> Tuple[str, ...]:
        return tuple(self._names)

    def level_name(self, level: int) -> str:
        return self._names[level]

    def has_variable(self, name: str) -> bool:
        return name in self._levels_by_name

    # -- raw node accessors ------------------------------------------------------
    def node_level(self, index: int) -> int:
        return self._levels[index]

    def node_low(self, index: int) -> int:
        return self._lows[index]

    def node_high(self, index: int) -> int:
        return self._highs[index]

    def size(self) -> int:
        """Total number of interned nodes (including the two terminals)."""
        return len(self._levels)

    # -- terminals and variables --------------------------------------------------
    @property
    def true(self) -> BDD:
        return BDD(self, self.TRUE_INDEX)

    @property
    def false(self) -> BDD:
        return BDD(self, self.FALSE_INDEX)

    def var(self, name: str) -> BDD:
        level = self.declare(name)
        return BDD(self, self._make_node(level, self.FALSE_INDEX, self.TRUE_INDEX))

    def nvar(self, name: str) -> BDD:
        level = self.declare(name)
        return BDD(self, self._make_node(level, self.TRUE_INDEX, self.FALSE_INDEX))

    def constant(self, value: bool) -> BDD:
        return self.true if value else self.false

    def _make_node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        index = len(self._levels)
        self._levels.append(level)
        self._lows.append(low)
        self._highs.append(high)
        self._unique[key] = index
        return index

    # -- apply ------------------------------------------------------------------
    @staticmethod
    def _terminal_op(operation: str, left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
        """Short-circuit evaluation of ``operation`` on possibly-unknown terminals."""
        if operation == "and":
            if left is False or right is False:
                return False
            if left is True and right is True:
                return True
        elif operation == "or":
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
        elif operation == "xor":
            if left is not None and right is not None:
                return left != right
        elif operation == "implies":
            if left is False or right is True:
                return True
            if left is True and right is False:
                return False
        elif operation == "iff":
            if left is not None and right is not None:
                return left == right
        return None

    def _as_terminal(self, index: int) -> Optional[bool]:
        if index == self.TRUE_INDEX:
            return True
        if index == self.FALSE_INDEX:
            return False
        return None

    def apply(self, operation: str, left: BDD, right: BDD) -> BDD:
        """Binary boolean operation via memoized Shannon expansion."""
        self.apply_calls += 1
        return BDD(self, self._apply(operation, left.index, right.index))

    def _apply(self, operation: str, left: int, right: int) -> int:
        # fast paths: identical operands and terminal operands resolve
        # without recursion, cache lookups or node construction; ``and`` and
        # ``or`` (the bulk of the traffic) settle every terminal case inline
        if operation == "and":
            if left == right or right == 1:
                return left
            if left == 1:
                return right
            if left == 0 or right == 0:
                return 0
        elif operation == "or":
            if left == right or right == 0:
                return left
            if left == 0:
                return right
            if left == 1 or right == 1:
                return 1
        elif left == right:
            return self.FALSE_INDEX if operation == "xor" else self.TRUE_INDEX
        elif operation == "xor":
            if left == self.FALSE_INDEX:
                return right
            if right == self.FALSE_INDEX:
                return left
        elif operation == "implies" and left == self.TRUE_INDEX:
            return right
        elif operation == "iff":
            if left == self.TRUE_INDEX:
                return right
            if right == self.TRUE_INDEX:
                return left
        if left < 2 or right < 2:  # a terminal operand
            terminal = self._terminal_op(
                operation, self._as_terminal(left), self._as_terminal(right)
            )
            if terminal is not None:
                return self.TRUE_INDEX if terminal else self.FALSE_INDEX
        if operation in ("and", "or", "xor", "iff") and left > right:
            left, right = right, left  # commutative: canonicalize the cache key
        key = (operation, left, right)
        self.apply_cache_lookups += 1
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.apply_cache_hits += 1
            return cached
        left_level = self._levels[left]
        right_level = self._levels[right]
        if left_level < right_level:
            level = left_level
            left_low, left_high = self._lows[left], self._highs[left]
            right_low = right_high = right
        elif right_level < left_level:
            level = right_level
            left_low = left_high = left
            right_low, right_high = self._lows[right], self._highs[right]
        else:
            level = left_level
            left_low, left_high = self._lows[left], self._highs[left]
            right_low, right_high = self._lows[right], self._highs[right]
        low = self._apply(operation, left_low, right_low)
        high = self._apply(operation, left_high, right_high)
        result = self._make_node(level, low, high)
        if len(self._apply_cache) >= self.computed_table_limit:
            self._apply_cache.clear()
            self.cache_evictions += 1
        self._apply_cache[key] = result
        return result

    def negate(self, node: BDD) -> BDD:
        return BDD(self, self._apply("xor", node.index, self.TRUE_INDEX))

    def ite(self, condition: BDD, then_branch: BDD, else_branch: BDD) -> BDD:
        """If-then-else: ``(condition & then) | (~condition & else)``."""
        # terminal fast paths: no cache traffic, no apply recursion
        if condition.index == self.TRUE_INDEX:
            return then_branch
        if condition.index == self.FALSE_INDEX:
            return else_branch
        if then_branch.index == else_branch.index:
            return then_branch
        if then_branch.index == self.TRUE_INDEX and else_branch.index == self.FALSE_INDEX:
            return condition
        if then_branch.index == self.FALSE_INDEX and else_branch.index == self.TRUE_INDEX:
            return ~condition
        key = (condition.index, then_branch.index, else_branch.index)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return BDD(self, cached)
        result = (condition & then_branch) | (~condition & else_branch)
        if len(self._ite_cache) >= self.computed_table_limit:
            self._ite_cache.clear()
            self.cache_evictions += 1
        self._ite_cache[key] = result.index
        return result

    # -- restriction, quantification, substitution ---------------------------------
    def restrict(self, node: BDD, assignment: Mapping[str, bool]) -> BDD:
        """Cofactor: fix the given variables to constants."""
        by_level = {
            self._levels_by_name[name]: value
            for name, value in assignment.items()
            if name in self._levels_by_name
        }
        cache: Dict[int, int] = {}

        def walk(index: int) -> int:
            if index in (self.TRUE_INDEX, self.FALSE_INDEX):
                return index
            if index in cache:
                return cache[index]
            level = self._levels[index]
            if level in by_level:
                result = walk(self._highs[index] if by_level[level] else self._lows[index])
            else:
                result = self._make_node(level, walk(self._lows[index]), walk(self._highs[index]))
            cache[index] = result
            return result

        return BDD(self, walk(node.index))

    def and_exists(self, left: BDD, right: BDD, variables: Iterable[str]) -> BDD:
        """Relational product ``∃variables.(left & right)`` in one pass.

        The conjunction is never built: the Shannon expansion of ``left &
        right`` quantifies each level of ``variables`` as it is reached,
        ORing the two cofactor results (and skipping the second when the
        first is already ``true``).  Results are memoized in a computed
        table keyed by the operands and the quantified level set, so the
        repeated images of a fixpoint over one relation share work.
        """
        self.and_exists_calls += 1
        levels = frozenset(
            self._levels_by_name[name] for name in variables if name in self._levels_by_name
        )
        if not levels:
            return BDD(self, self._apply("and", left.index, right.index))
        return BDD(self, self._and_exists(left.index, right.index, levels, max(levels)))

    def _and_exists(self, left: int, right: int, levels: FrozenSet[int], last: int) -> int:
        if left == 0 or right == 0:
            return 0
        if left == right:
            left = 1  # ∃V.(f & f) = ∃V.(true & f)
        elif left > right:
            left, right = right, left  # commutative: canonicalize the cache key
        left_level = self._levels[left]
        right_level = self._levels[right]
        level = left_level if left_level < right_level else right_level
        if level > last:  # nothing left to quantify below this point
            return self._apply("and", left, right)
        key = (left, right, levels)
        self.and_exists_cache_lookups += 1
        cached = self._and_exists_cache.get(key)
        if cached is not None:
            self.and_exists_cache_hits += 1
            return cached
        if left_level == level:
            left_low, left_high = self._lows[left], self._highs[left]
        else:
            left_low = left_high = left
        if right_level == level:
            right_low, right_high = self._lows[right], self._highs[right]
        else:
            right_low = right_high = right
        low = self._and_exists(left_low, right_low, levels, last)
        if level in levels:
            if low == 1:
                result = 1
            else:
                high = self._and_exists(left_high, right_high, levels, last)
                result = self._apply("or", low, high)
        else:
            high = self._and_exists(left_high, right_high, levels, last)
            result = self._make_node(level, low, high)
        if len(self._and_exists_cache) >= self.computed_table_limit:
            self._and_exists_cache.clear()
            self.cache_evictions += 1
        self._and_exists_cache[key] = result
        return result

    def exists(self, node: BDD, variables: Iterable[str]) -> BDD:
        """Existential quantification: the relational product with ``true``."""
        return self.and_exists(node, self.true, variables)

    def forall(self, node: BDD, variables: Iterable[str]) -> BDD:
        """Universal quantification, the dual ``~exists(~node)``."""
        return ~self.exists(~node, variables)

    def compose(self, node: BDD, substitution: Mapping[str, BDD]) -> BDD:
        """Substitute variables by boolean functions, one variable at a time."""
        result = node
        for name, function in substitution.items():
            if name not in self._levels_by_name:
                continue
            high = self.restrict(result, {name: True})
            low = self.restrict(result, {name: False})
            result = self.ite(function, high, low)
        return result

    def rename(self, node: BDD, renaming: Mapping[str, str]) -> BDD:
        """Rename variables (target variables must not clash with remaining support).

        When the renaming keeps the support's level order — the
        ``s'·r -> s·r`` rename after an image always does — the result is
        one memoized walk that relabels levels in place.  An order-changing
        renaming goes through :meth:`compose`.
        """
        self.rename_calls += 1
        moves: Dict[int, int] = {}
        for source, target in renaming.items():
            target_level = self.declare(target)
            if source in self._levels_by_name and source != target:
                moves[self._levels_by_name[source]] = target_level
        support = sorted(self._support_levels(node.index))
        relabelled = [moves.get(level, level) for level in support]
        in_order = all(a < b for a, b in zip(relabelled, relabelled[1:]))
        clash = not set(support).isdisjoint(moves[level] for level in support if level in moves)
        if not in_order or clash:
            substitution = {source: self.var(target) for source, target in renaming.items()}
            return self.compose(node, substitution)
        memo: Dict[int, int] = {self.FALSE_INDEX: self.FALSE_INDEX, self.TRUE_INDEX: self.TRUE_INDEX}

        def walk(index: int) -> int:
            cached = memo.get(index)
            if cached is not None:
                return cached
            level = self._levels[index]
            result = self._make_node(
                moves.get(level, level), walk(self._lows[index]), walk(self._highs[index])
            )
            memo[index] = result
            return result

        return BDD(self, walk(node.index))

    # -- non-constructive decisions ------------------------------------------------
    def leq(self, left: BDD, right: BDD) -> bool:
        """``left ≤ right``: is ``left → right`` valid?  Builds no node and
        returns at the first counterexample."""
        self.leq_calls += 1
        hits = self._meets_cache_hits
        result = not self._meets(left.index, self.TRUE_INDEX, right.index)
        self.leq_cache_hits += self._meets_cache_hits - hits
        return result

    def intersects(self, left: BDD, right: BDD) -> bool:
        """Is ``left ∧ right`` satisfiable?  Builds no node and returns at
        the first witness."""
        self.intersects_calls += 1
        hits = self._meets_cache_hits
        result = self._meets(left.index, right.index, self.FALSE_INDEX)
        self.intersects_cache_hits += self._meets_cache_hits - hits
        return result

    def satisfy_one_and(self, left: BDD, right: BDD) -> Optional[Dict[str, bool]]:
        """Exactly ``(left & right).satisfy_one()``, without building the conjunction.

        The walk follows the pair of operands down the path
        :meth:`satisfy_one` takes through the reduced conjunction: the high
        branch whenever it is satisfiable, the low branch otherwise.  A
        level where the two cofactor conjunctions coincide has no node in
        the reduced conjunction, so it is crossed without being assigned.
        Once one operand is ``true`` (or both are the same node) the
        conjunction is the other operand, and its own walk finishes the job.
        """
        meets = self._meets
        levels, lows, highs = self._levels, self._lows, self._highs
        f, g = left.index, right.index
        if not meets(f, g, self.FALSE_INDEX):
            return None
        assignment: Dict[str, bool] = {}
        while f != self.TRUE_INDEX and g != self.TRUE_INDEX and f != g:
            level = min(levels[f], levels[g])
            f0, f1 = (lows[f], highs[f]) if levels[f] == level else (f, f)
            g0, g1 = (lows[g], highs[g]) if levels[g] == level else (g, g)
            if not meets(f1, g1, self.FALSE_INDEX):
                assignment[self._names[level]] = False
                f, g = f0, g0
                continue
            # f0 ∧ g0 = f1 ∧ g1 iff each conjunction lies below both
            # operands of the other
            if not (
                meets(f0, g0, self.FALSE_INDEX)
                and not meets(f0, g0, f1)
                and not meets(f0, g0, g1)
                and not meets(f1, g1, f0)
                and not meets(f1, g1, g0)
            ):
                assignment[self._names[level]] = True
            f, g = f1, g1
        assignment.update(self.satisfy_one(BDD(self, g if f == self.TRUE_INDEX else f)))
        return assignment

    def _meets(self, a: int, b: int, c: int) -> bool:
        """Is ``a ∧ b ∧ ¬c`` satisfiable?  The one memoized recursion behind
        ``leq`` (``b`` = true), ``intersects`` (``c`` = false) and the
        branch tests of ``satisfy_one_and``."""
        if a > b:
            a, b = b, a  # commutative: canonicalize the cache key
        if a == 0 or c == 1:
            return False
        if a == 1 or a == b:
            if b == c:
                return False
            if b == 1 or c == 0:
                return True
            a = 1
        elif c == a or c == b:
            return False
        key = (a, b, c)
        cached = self._meets_cache.get(key)
        if cached is not None:
            self._meets_cache_hits += 1
            return cached
        levels, lows, highs = self._levels, self._lows, self._highs
        a_level, b_level, c_level = levels[a], levels[b], levels[c]
        level = min(a_level, b_level, c_level)
        a0, a1 = (lows[a], highs[a]) if a_level == level else (a, a)
        b0, b1 = (lows[b], highs[b]) if b_level == level else (b, b)
        c0, c1 = (lows[c], highs[c]) if c_level == level else (c, c)
        result = self._meets(a0, b0, c0) or self._meets(a1, b1, c1)
        if len(self._meets_cache) >= self.computed_table_limit:
            self._meets_cache.clear()
            self.cache_evictions += 1
        self._meets_cache[key] = result
        return result

    # -- queries -----------------------------------------------------------------
    def support(self, node: BDD) -> FrozenSet[str]:
        """The set of variables the function actually depends on (memoized per node)."""
        cached = self._support_cache.get(node.index)
        if cached is None:
            cached = frozenset(self._names[level] for level in self._support_levels(node.index))
            if len(self._support_cache) >= self.computed_table_limit:
                self._support_cache.clear()
                self.cache_evictions += 1
            self._support_cache[node.index] = cached
        return cached

    def _support_levels(self, root: int) -> Set[int]:
        seen: Set[int] = set()
        levels: Set[int] = set()
        stack = [root]
        while stack:
            index = stack.pop()
            if index in seen or index in (self.TRUE_INDEX, self.FALSE_INDEX):
                continue
            seen.add(index)
            levels.add(self._levels[index])
            stack.append(self._lows[index])
            stack.append(self._highs[index])
        return levels

    def node_count(self, node: BDD) -> int:
        """Number of distinct internal nodes of the BDD rooted at ``node``."""
        seen: Set[int] = set()
        stack = [node.index]
        while stack:
            index = stack.pop()
            if index in seen or index in (self.TRUE_INDEX, self.FALSE_INDEX):
                continue
            seen.add(index)
            stack.append(self._lows[index])
            stack.append(self._highs[index])
        return len(seen)

    def satisfy_one(self, node: BDD) -> Optional[Dict[str, bool]]:
        """One satisfying assignment over the support, or None if unsatisfiable."""
        if node.is_false():
            return None
        assignment: Dict[str, bool] = {}
        index = node.index
        while index not in (self.TRUE_INDEX, self.FALSE_INDEX):
            level = self._levels[index]
            if self._highs[index] != self.FALSE_INDEX:
                assignment[self._names[level]] = True
                index = self._highs[index]
            else:
                assignment[self._names[level]] = False
                index = self._lows[index]
        return assignment

    def satisfy_all(
        self, node: BDD, variables: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, bool]]:
        """All satisfying assignments, expanded over ``variables`` (default: support).

        The enumeration walks the BDD instead of testing the ``2^n`` cube:
        every path explored ends in at least one solution (in a reduced BDD
        the only unsatisfiable node is the FALSE terminal), so the cost is
        proportional to the number of assignments yielded, times the number
        of variables — output-sensitive, which is what lets the compiled
        reaction engine enumerate exactly the admissible reactions of a
        state.  ``variables`` must cover the support of ``node``.
        """
        names = tuple(variables) if variables is not None else tuple(sorted(self.support(node)))
        missing = self.support(node) - set(names)
        if missing:
            raise ValueError(
                f"satisfy_all variables must cover the support; missing {sorted(missing)}"
            )
        # walk in manager level order; names unknown to the manager expand last
        ordered = sorted(
            names, key=lambda name: self._levels_by_name.get(name, self.TERMINAL_LEVEL)
        )
        assignment: Dict[str, bool] = {}

        def walk(index: int, position: int) -> Iterator[Dict[str, bool]]:
            if index == self.FALSE_INDEX:
                return
            if position == len(ordered):
                yield {name: assignment[name] for name in names}
                return
            name = ordered[position]
            level = self._levels_by_name.get(name, self.TERMINAL_LEVEL)
            if self._levels[index] == level:
                branches = ((False, self._lows[index]), (True, self._highs[index]))
            else:
                branches = ((False, index), (True, index))  # don't care on ``name``
            for value, child in branches:
                assignment[name] = value
                yield from walk(child, position + 1)
            del assignment[name]

        yield from walk(node.index, 0)

    def satisfy_matrix(self, node: BDD, variables: Sequence[str]) -> List[List[bool]]:
        """All satisfying assignments as rows of booleans, columns = ``variables``.

        Row ``i`` is exactly the ``i``-th assignment :meth:`satisfy_all`
        yields (same values, same order), filled positionally in one walk
        instead of through per-solution dicts; bulk consumers like the
        compiled reaction sweep index columns once instead of hashing
        variable names per solution.
        """
        names = tuple(variables)
        missing = self.support(node) - set(names)
        if missing:
            raise ValueError(
                f"satisfy_all variables must cover the support; missing {sorted(missing)}"
            )
        # the walk of satisfy_all: manager level order, unknown names last;
        # each step writes every column that names the variable it decides
        columns: Dict[str, List[int]] = {}
        for column, name in enumerate(names):
            columns.setdefault(name, []).append(column)
        levels_by_name = self._levels_by_name
        ordered = sorted(names, key=lambda name: levels_by_name.get(name, self.TERMINAL_LEVEL))
        steps = [
            (levels_by_name.get(name, self.TERMINAL_LEVEL), columns[name]) for name in ordered
        ]
        depth = len(steps)
        levels, lows, highs = self._levels, self._lows, self._highs
        false = self.FALSE_INDEX
        row = [False] * len(names)
        rows: List[List[bool]] = []

        def walk(index: int, position: int) -> None:
            if index == false:
                return
            if position == depth:
                rows.append(row[:])
                return
            level, targets = steps[position]
            if levels[index] == level:
                low, high = lows[index], highs[index]
            else:
                low = high = index  # don't care on this variable
            for column in targets:
                row[column] = False
            walk(low, position + 1)
            for column in targets:
                row[column] = True
            walk(high, position + 1)

        walk(node.index, 0)
        return rows

    def count(self, node: BDD, variables: Optional[Sequence[str]] = None) -> int:
        """Number of satisfying assignments over ``variables`` (default: support)."""
        names = tuple(variables) if variables is not None else tuple(sorted(self.support(node)))
        missing = self.support(node) - set(names)
        if missing:
            raise ValueError(f"count variables must cover the support; missing {sorted(missing)}")
        cache: Dict[Tuple[int, int], int] = {}
        name_levels = sorted(self._levels_by_name[name] for name in names if name in self._levels_by_name)

        def walk(index: int, position: int) -> int:
            remaining = len(name_levels) - position
            if index == self.TRUE_INDEX:
                return 2**remaining
            if index == self.FALSE_INDEX:
                return 0
            key = (index, position)
            if key in cache:
                return cache[key]
            level = self._levels[index]
            if position < len(name_levels) and name_levels[position] < level:
                result = 2 * walk(index, position + 1)
            else:
                result = walk(self._lows[index], position + 1) + walk(self._highs[index], position + 1)
            cache[key] = result
            return result

        return walk(node.index, 0)

    def evaluate(self, node: BDD, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the function under a (total, over the support) assignment."""
        index = node.index
        while index not in (self.TRUE_INDEX, self.FALSE_INDEX):
            name = self._names[self._levels[index]]
            if name not in assignment:
                raise KeyError(f"assignment is missing variable {name!r}")
            index = self._highs[index] if assignment[name] else self._lows[index]
        return index == self.TRUE_INDEX

    # -- convenience -----------------------------------------------------------
    def conjoin(self, nodes: Iterable[BDD]) -> BDD:
        result = self.true
        for node in nodes:
            result = result & node
        return result

    def disjoin(self, nodes: Iterable[BDD]) -> BDD:
        result = self.false
        for node in nodes:
            result = result | node
        return result

    # -- serialization -----------------------------------------------------------
    def dump(self, roots: Sequence[BDD]) -> Dict[str, object]:
        """A JSON-safe snapshot of the graphs reachable from ``roots``.

        The payload records the variable order and the reachable nodes as
        ``[level, low, high]`` triples in *canonical* order — a depth-first
        postorder from the roots, low child before high child — plus the
        root indices.  Children always precede their parents (the invariant
        the loader relies on), and the order is a function of the root
        *functions* alone, never of internal node-index assignment: two
        managers denoting the same functions under the same variable order
        produce byte-identical payloads regardless of how their unique
        tables were populated, which keeps artifact digests stable across
        sessions that built the same relation by different operation
        sequences.  Unreachable nodes are not
        serialized, so a dump after heavy intermediate computation is as
        small as a dump after :meth:`collect_garbage`.
        """
        remap: Dict[int, int] = {self.FALSE_INDEX: 0, self.TRUE_INDEX: 1}
        scheduled: Set[int] = set()
        nodes: List[List[int]] = []
        stack: List[Tuple[int, bool]] = [(root.index, False) for root in reversed(roots)]
        while stack:
            index, expand = stack.pop()
            if index in remap:
                continue
            if expand:
                remap[index] = len(nodes) + 2
                nodes.append(
                    [self._levels[index], remap[self._lows[index]], remap[self._highs[index]]]
                )
            elif index not in scheduled:
                scheduled.add(index)
                stack.append((index, True))
                stack.append((self._highs[index], False))
                stack.append((self._lows[index], False))
        return {
            "variables": list(self._names),
            "nodes": nodes,
            "roots": [remap[root.index] for root in roots],
        }

    @classmethod
    def load(cls, payload: Mapping[str, object]) -> Tuple["BDDManager", List[BDD]]:
        """Rebuild a manager and root handles from a :meth:`dump` payload.

        Loading appends the recorded triples directly into the node arrays —
        linear in the node count, no ``apply`` recursion, no cache traffic —
        which is what makes a warm artifact-store hit cheap compared to
        recompiling the relation.  The payload is validated structurally
        (child indices must precede their parent, levels must name declared
        variables) so a corrupted artifact fails loudly instead of producing
        a wrong relation.
        """
        manager = cls(payload["variables"])
        variable_count = len(manager._names)
        for position, (level, low, high) in enumerate(payload["nodes"]):
            index = position + 2
            if not (0 <= level < variable_count) or low >= index or high >= index or low == high:
                raise ValueError(f"corrupt BDD payload at node {index}: {(level, low, high)}")
            # ordered-BDD invariant: a node's level strictly precedes its
            # children's (terminals sit at the sentinel level), and each
            # (level, low, high) triple is interned exactly once — without
            # these, restrict/satisfy_all would silently return wrong answers
            if level >= manager._levels[low] or level >= manager._levels[high]:
                raise ValueError(
                    f"corrupt BDD payload at node {index}: level {level} does not "
                    "precede its children"
                )
            if (level, low, high) in manager._unique:
                raise ValueError(
                    f"corrupt BDD payload at node {index}: duplicate triple "
                    f"{(level, low, high)}"
                )
            manager._levels.append(level)
            manager._lows.append(low)
            manager._highs.append(high)
            manager._unique[(level, low, high)] = index
        total = len(manager._levels)
        roots = []
        for index in payload["roots"]:
            if not (0 <= index < total):
                raise ValueError(f"corrupt BDD payload: root {index} out of range")
            roots.append(BDD(manager, index))
        return manager, roots

    def equivalent(self, left: BDD, right: BDD) -> bool:
        return left.index == right.index

    # -- maintenance: GC, reordering, sifting -------------------------------------
    def stats(self) -> Dict[str, int]:
        """Operational counters for benchmarks and health checks."""
        # peak tracking is lazy: updated here rather than on every interning,
        # which keeps _make_node free of bookkeeping on the hot path
        self.peak_nodes = max(self.peak_nodes, len(self._levels))
        return {
            "nodes": len(self._levels),
            "variables": len(self._names),
            "apply_cache": len(self._apply_cache),
            "ite_cache": len(self._ite_cache),
            "cache_evictions": self.cache_evictions,
            "gc_runs": self.gc_runs,
            "reorder_runs": self.reorder_runs,
            "apply_calls": self.apply_calls,
            "apply_cache_lookups": self.apply_cache_lookups,
            "apply_cache_hits": self.apply_cache_hits,
            "and_exists_cache": len(self._and_exists_cache),
            "and_exists_calls": self.and_exists_calls,
            "and_exists_cache_lookups": self.and_exists_cache_lookups,
            "and_exists_cache_hits": self.and_exists_cache_hits,
            "rename_calls": self.rename_calls,
            "meets_cache": len(self._meets_cache),
            "leq_calls": self.leq_calls,
            "leq_cache_hits": self.leq_cache_hits,
            "intersects_calls": self.intersects_calls,
            "intersects_cache_hits": self.intersects_cache_hits,
            "support_cache": len(self._support_cache),
            "peak_nodes": self.peak_nodes,
            "sift_seconds": self.sift_seconds,
        }

    def clear_caches(self) -> None:
        self._apply_cache.clear()
        self._ite_cache.clear()
        self._and_exists_cache.clear()
        self._meets_cache.clear()
        self._support_cache.clear()

    def collect_garbage(self, keep: Sequence[BDD]) -> List[BDD]:
        """Drop every node unreachable from ``keep`` and compact the table.

        The handles in ``keep`` are re-pointed in place (their functions are
        unchanged) and returned; **any other outstanding handle of this
        manager becomes stale**.  Use on single-owner managers — the compiled
        reaction engine calls this once after compilation to shed the
        intermediate conjuncts.
        """
        marked: Set[int] = {self.FALSE_INDEX, self.TRUE_INDEX}
        stack = [handle.index for handle in keep]
        while stack:
            index = stack.pop()
            if index in marked:
                continue
            marked.add(index)
            stack.append(self._lows[index])
            stack.append(self._highs[index])
        # children are always interned before their parents, so one ascending
        # pass can rebuild the arrays with every child already remapped
        remap: Dict[int, int] = {self.FALSE_INDEX: 0, self.TRUE_INDEX: 1}
        levels: List[int] = [self.TERMINAL_LEVEL, self.TERMINAL_LEVEL]
        lows: List[int] = [0, 1]
        highs: List[int] = [0, 1]
        unique: Dict[Tuple[int, int, int], int] = {}
        for index in range(2, len(self._levels)):
            if index not in marked:
                continue
            remap[index] = len(levels)
            level = self._levels[index]
            low = remap[self._lows[index]]
            high = remap[self._highs[index]]
            unique[(level, low, high)] = len(levels)
            levels.append(level)
            lows.append(low)
            highs.append(high)
        self._levels, self._lows, self._highs = levels, lows, highs
        self._unique = unique
        self.clear_caches()
        self.gc_runs += 1
        for handle in keep:
            handle.index = remap[handle.index]
        return list(keep)

    def reorder(self, order: Sequence[str], keep: Sequence[BDD]) -> List[BDD]:
        """Rebuild the roots in ``keep`` under a new variable order.

        ``order`` lists variable names first; declared variables it omits
        keep their relative order after the listed ones.  The rebuild is a
        memoized Shannon transfer, so it is correct independently of how the
        order was chosen.  Handles in ``keep`` are re-pointed in place and
        returned; any other handle becomes stale (single-owner managers
        only).  Garbage from the old order is collected before returning.
        """
        listed = [name for name in order if name in self._levels_by_name]
        listed_set = set(listed)
        remaining = [name for name in self._names if name not in listed_set]
        new_names = listed + remaining
        if new_names == self._names:
            return list(keep)
        old_levels, old_lows, old_highs = self._levels, self._lows, self._highs
        old_names = self._names
        self._levels = [self.TERMINAL_LEVEL, self.TERMINAL_LEVEL]
        self._lows = [0, 1]
        self._highs = [0, 1]
        self._unique = {}
        self.clear_caches()
        self._names = list(new_names)
        self._levels_by_name = {name: level for level, name in enumerate(new_names)}
        memo: Dict[int, int] = {self.FALSE_INDEX: 0, self.TRUE_INDEX: 1}

        def transfer(index: int) -> int:
            cached = memo.get(index)
            if cached is not None:
                return cached
            variable = self.var(old_names[old_levels[index]])
            result = self.ite(
                variable,
                BDD(self, transfer(old_highs[index])),
                BDD(self, transfer(old_lows[index])),
            ).index
            memo[index] = result
            return result

        for handle in keep:
            handle.index = transfer(handle.index)
        self.reorder_runs += 1
        self.collect_garbage(keep)
        return list(keep)

    def sift(self, keep: Sequence[BDD], max_variables: Optional[int] = None) -> List[BDD]:
        """Rudell-style sifting: move each variable to its best position.

        The search runs on a private shadow copy of the graphs in ``keep``
        (adjacent-level swaps with reference counts), so it only *chooses*
        an order; the actual reordering is the semantics-preserving rebuild
        of :meth:`reorder`.  Variables are sifted in decreasing order of
        node population; ``max_variables`` bounds how many are sifted (all
        by default).  Handles in ``keep`` are re-pointed in place and
        returned; other handles become stale.
        """
        started = time.perf_counter()
        try:
            support: Set[str] = set()
            for handle in keep:
                support |= self.support(handle)
            if len(support) < 3:
                return list(keep)
            session = _SiftSession(self, keep)
            order = session.run(max_variables)
            return self.reorder(order, keep)
        finally:
            self.sift_seconds += time.perf_counter() - started


class _SiftSession:
    """A private, refcounted shadow of some BDD roots used to *choose* an order.

    Nodes are small lists ``[level, low, high]`` in a per-level unique table;
    adjacent levels are swapped in place with the classical Rudell update, so
    evaluating a candidate position costs only the nodes of the two levels
    involved.  The session never feeds nodes back into the manager: its only
    product is a variable order, consumed by :meth:`BDDManager.reorder`.
    """

    FALSE = 0
    TRUE = 1

    def __init__(self, manager: BDDManager, roots: Sequence[BDD]):
        support: Set[str] = set()
        for root in roots:
            support |= manager.support(root)
        #: position -> variable name, in the manager's current relative order
        self.names: List[str] = [name for name in manager.variables() if name in support]
        position_of = {name: position for position, name in enumerate(self.names)}
        # nodes[id] = [level, low, high]; 0/1 are the terminals
        self.nodes: List[List[int]] = [[len(self.names), 0, 0], [len(self.names), 1, 1]]
        self.refs: List[int] = [1, 1]
        self.tables: List[Dict[Tuple[int, int], int]] = [{} for _ in self.names]
        copied: Dict[int, int] = {
            BDDManager.FALSE_INDEX: self.FALSE,
            BDDManager.TRUE_INDEX: self.TRUE,
        }

        def copy(index: int) -> int:
            cached = copied.get(index)
            if cached is not None:
                return cached
            level = position_of[manager.level_name(manager.node_level(index))]
            low = copy(manager.node_low(index))
            high = copy(manager.node_high(index))
            node = self._lookup(level, low, high)
            copied[index] = node
            return node

        self.root_ids = [copy(root.index) for root in roots]
        for node in self.root_ids:
            self.refs[node] += 1
        # the copy pass left one construction reference per distinct node;
        # shed it so refcounts mean exactly "parents plus roots"
        for node in copied.values():
            if node not in (self.FALSE, self.TRUE):
                self.refs[node] -= 1

    # -- node store --------------------------------------------------------------
    def _lookup(self, level: int, low: int, high: int) -> int:
        if low == high:
            self.refs[low] += 1
            return low
        existing = self.tables[level].get((low, high))
        if existing is not None:
            self.refs[existing] += 1
            return existing
        node = len(self.nodes)
        self.nodes.append([level, low, high])
        self.refs.append(1)
        self.refs[low] += 1
        self.refs[high] += 1
        self.tables[level][(low, high)] = node
        return node

    def _release(self, node: int) -> None:
        if node in (self.FALSE, self.TRUE) or self.refs[node] <= 0:
            return
        self.refs[node] -= 1
        if self.refs[node] == 0:
            level, low, high = self.nodes[node]
            table = self.tables[level]
            if table.get((low, high)) == node:
                del table[(low, high)]
            else:
                table.pop((low, high, node), None)
            self._release(low)
            self._release(high)

    def size(self) -> int:
        return sum(len(table) for table in self.tables)

    def level_sizes(self) -> List[int]:
        return [len(table) for table in self.tables]

    @staticmethod
    def _insert(table: Dict, key: Tuple[int, int], node: int) -> None:
        """Insert preserving existing entries: a (rare) duplicate function gets
        a salted slot — it only inflates the size heuristic, never breaks it."""
        if key in table and table[key] != node:
            table[(key[0], key[1], node)] = node
        else:
            table[key] = node

    # -- the adjacent swap --------------------------------------------------------
    def swap(self, upper: int) -> None:
        """Swap the variables at levels ``upper`` and ``upper + 1`` in place.

        Node ids are preserved (parents above the pair keep pointing at the
        same ids with the same functions): a node of the upper variable that
        depends on the lower one is rewritten in place as a lower-variable
        node over fresh cofactor children; one that does not sinks a level;
        lower-variable nodes still referenced from outside the pair rise.
        """
        lower = upper + 1
        u_nodes = self.tables[upper]
        v_nodes = self.tables[lower]
        self.tables[upper] = {}
        self.tables[lower] = {}
        for _key, node in u_nodes.items():
            if self.refs[node] <= 0:
                continue
            _level, low, high = self.nodes[node]
            low_is_v = low > 1 and self.nodes[low][0] == lower
            high_is_v = high > 1 and self.nodes[high][0] == lower
            if not low_is_v and not high_is_v:
                # independent of the rising variable: the node sinks one level
                self.nodes[node][0] = lower
                self._insert(self.tables[lower], (low, high), node)
                continue
            f00, f01 = (self.nodes[low][1], self.nodes[low][2]) if low_is_v else (low, low)
            f10, f11 = (self.nodes[high][1], self.nodes[high][2]) if high_is_v else (high, high)
            new_low = self._lookup(lower, f00, f10)
            new_high = self._lookup(lower, f01, f11)
            self.nodes[node][0] = upper
            self.nodes[node][1] = new_low
            self.nodes[node][2] = new_high
            self._insert(self.tables[upper], (new_low, new_high), node)
            self._release(low)
            self._release(high)
        # lower-variable nodes still referenced from roots or from levels above
        # the pair rise; the rest died when their last upper parent released them
        for _key, node in v_nodes.items():
            if self.refs[node] <= 0 or self.nodes[node][0] != lower:
                continue
            self.nodes[node][0] = upper
            self._insert(self.tables[upper], (self.nodes[node][1], self.nodes[node][2]), node)
        self.names[upper], self.names[lower] = self.names[lower], self.names[upper]

    # -- the sifting loop ---------------------------------------------------------
    def run(self, max_variables: Optional[int] = None) -> List[str]:
        """Sift variables (largest population first); return the best order."""
        candidates = sorted(
            range(len(self.names)),
            key=lambda level: -len(self.tables[level]),
        )
        if max_variables is not None:
            candidates = candidates[:max_variables]
        sifted_names = [self.names[level] for level in candidates]
        for name in sifted_names:
            self._sift_one(name)
        return list(self.names)

    def _sift_one(self, name: str, max_growth: float = 1.5) -> None:
        position = self.names.index(name)
        best_size = self.size()
        best_position = position
        limit = int(best_size * max_growth) + 2
        # downward pass
        current = position
        while current < len(self.names) - 1:
            self.swap(current)
            current += 1
            size = self.size()
            if size < best_size:
                best_size, best_position = size, current
            if size > limit:
                break
        # back up through the start
        while current > 0:
            self.swap(current - 1)
            current -= 1
            size = self.size()
            if size < best_size:
                best_size, best_position = size, current
            if size > limit and current < best_position:
                break
        # settle at the best position seen
        while current < best_position:
            self.swap(current)
            current += 1
        while current > best_position:
            self.swap(current - 1)
            current -= 1
