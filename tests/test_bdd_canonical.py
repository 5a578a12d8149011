"""The BDD kernel's guarantees beyond truth tables, and the artifacts built on them.

:class:`~repro.bdd.bdd.BDDManager` promises *canonical serialization* (a
:meth:`~repro.bdd.bdd.BDDManager.dump` depends on the root functions and the
variable order only), *enumeration order* (level order, ``False`` first) and
*non-construction* for its decision procedures.  The artifact store and the
committed corpus lean on the first: a compiled step relation is persisted as
a dump, and warm starts must reload it byte for byte.  This suite checks the
guarantees three ways:

* **property level** — random straight-line boolean programs (hypothesis):
  the dump and the enumeration do not depend on what else the manager built,
  and a reloaded manager answers every query as the original did;
* **corpus level** — every committed corpus design: its compiled step
  relations compile to the same payload in two fresh contexts, reload into
  the same payload, and the reloaded relation explores the same LTS;
* **pipeline level** — seeded designs outside the corpus pushed through the
  full verdict matrix: the engines agree, and the compiled payloads of the
  context that ran the matrix equal a fresh compile's.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import AnalysisContext
from repro.bdd.bdd import BDDManager
from repro.gen.corpus import Corpus
from repro.gen.differential import run_design
from repro.gen.topologies import design_space
from repro.mc.compiled import CompiledAbstraction
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_CORPUS = REPO_ROOT / "corpus" / "corpus.json"

#: seeded designs for the pipeline level; disjoint from the corpus's seeds
PIPELINE_SEEDS = range(1000, 1010)

VARIABLES = ("p", "q", "r", "s", "t")

_programs = st.lists(
    st.tuples(
        st.sampled_from(("and", "or", "xor", "implies", "iff", "not")),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=20,
)

_assignments = st.fixed_dictionaries(
    {}, optional={name: st.booleans() for name in VARIABLES}
)


def _build(manager, program):
    pool = [manager.var(name) for name in VARIABLES]
    for operation, left_index, right_index in program:
        left = pool[left_index % len(pool)]
        right = pool[right_index % len(pool)]
        pool.append(~left if operation == "not" else manager.apply(operation, left, right))
    return pool[-1]


def _points():
    for bits in range(1 << len(VARIABLES)):
        yield {name: bool(bits & (1 << i)) for i, name in enumerate(VARIABLES)}


def _evaluate_all(manager, node):
    return [manager.evaluate(node, point) for point in _points()]


class TestCanonicalKernelProperties:
    """Dumps, enumerations and decisions are functions of the root function."""

    @given(program=_programs, noise=_programs)
    @settings(max_examples=60, deadline=None)
    def test_dump_and_enumeration_ignore_the_managers_history(self, program, noise):
        fresh = BDDManager(VARIABLES)
        expected = _build(fresh, program)
        used = BDDManager(VARIABLES)
        # a different history, so node indices differ: unrelated nodes and
        # cache entries first, then the same function rebuilt from its truth
        # table, minterms and literals taken in reverse order
        _build(used, noise)
        node = used.false
        for point, value in reversed(list(zip(_points(), _evaluate_all(fresh, expected)))):
            if value:
                minterm = used.true
                for name in reversed(VARIABLES):
                    literal = used.var(name) if point[name] else used.nvar(name)
                    minterm = literal & minterm
                node = node | minterm
        assert used.dump([node]) == fresh.dump([expected])
        rows = list(used.satisfy_all(node, VARIABLES))
        assert rows == list(fresh.satisfy_all(expected, VARIABLES))
        # level order, False branch before True: the rows are sorted
        keys = [tuple(row[name] for name in VARIABLES) for row in rows]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert used.satisfy_matrix(node, VARIABLES) == [list(key) for key in keys]
        assert used.count(node, VARIABLES) == len(rows)
        assert used.satisfy_one(node) == fresh.satisfy_one(expected)

    @given(program=_programs, assignment=_assignments)
    @settings(max_examples=60, deadline=None)
    def test_restrict_matches_evaluation(self, program, assignment):
        manager = BDDManager(VARIABLES)
        function = _build(manager, program)
        restricted = manager.restrict(function, assignment)
        assert not manager.support(restricted) & set(assignment)
        for point in _points():
            assert manager.evaluate(restricted, point) == manager.evaluate(
                function, {**point, **assignment}
            )

    @given(
        left=_programs,
        right=_programs,
        quantified=st.sets(st.sampled_from(VARIABLES)),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantified_results_dump_identically_after_reload(self, left, right, quantified):
        def quantify(manager, f, g):
            return manager.dump(
                [
                    manager.and_exists(f, g, quantified),
                    manager.exists(f, quantified),
                    manager.forall(g, quantified),
                    manager.rename(f, {"p": "q", "q": "r"}),
                ]
            )

        manager = BDDManager(VARIABLES)
        f, g = _build(manager, left), _build(manager, right)
        expected = quantify(manager, f, g)
        loaded, (f_again, g_again) = BDDManager.load(manager.dump([f, g]))
        assert quantify(loaded, f_again, g_again) == expected

    @given(left=_programs, right=_programs)
    @settings(max_examples=60, deadline=None)
    def test_reloaded_decisions_match_and_build_nothing(self, left, right):
        manager = BDDManager(VARIABLES)
        f, g = _build(manager, left), _build(manager, right)
        expected = (manager.leq(f, g), manager.intersects(f, g), manager.satisfy_one_and(f, g))
        loaded, (f_again, g_again) = BDDManager.load(manager.dump([f, g]))
        size = loaded.size()
        answers = (
            loaded.leq(f_again, g_again),
            loaded.intersects(f_again, g_again),
            loaded.satisfy_one_and(f_again, g_again),
        )
        assert loaded.size() == size, "a decision interned a node"
        assert answers == expected

    @given(program=_programs)
    @settings(max_examples=30, deadline=None)
    def test_load_is_lossless_and_idempotent(self, program):
        manager = BDDManager(VARIABLES)
        function = _build(manager, program)
        payload = manager.dump([function])
        loaded, (root,) = BDDManager.load(payload)
        assert loaded.dump([root]) == payload
        assert _evaluate_all(loaded, root) == _evaluate_all(manager, function)
        again, (same,) = BDDManager.load(loaded.dump([root]))
        assert again.dump([same]) == payload


def _processes(generated):
    return (*generated.components, generated.composition)


def _explore(process, abstraction):
    lazy = LazyReactionLTS(process, abstraction=abstraction)
    lts = OnTheFlyChecker(lazy, 512).materialize()
    return lts.initial, lts.states, lts.transitions, lts.truncated


def _payload_digest(context, generated):
    payloads = []
    for process in _processes(generated):
        abstraction = context.compiled(process)
        payloads.append(None if abstraction is None else abstraction.to_payload())
    return hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()


_CORPUS = Corpus.load(COMMITTED_CORPUS)


class TestCorpusCompiledArtifacts:
    """Every committed design's compiled relations: reproducible, reloadable."""

    def test_corpus_is_large_enough(self):
        assert len(_CORPUS) >= 50

    @pytest.mark.parametrize("entry", _CORPUS.entries, ids=lambda entry: entry.name)
    def test_compiled_payloads_are_canonical_and_reload_losslessly(self, entry):
        generated = entry.regenerate()
        first, second = AnalysisContext(), AnalysisContext()
        compiled = 0
        for process in _processes(generated):
            abstraction = first.compiled(process)
            if abstraction is None:
                assert second.compiled(process) is None
                continue
            compiled += 1
            payload = abstraction.to_payload()
            assert second.compiled(process).to_payload() == payload
            normalized = first.normalized(process)
            reloaded = CompiledAbstraction.from_payload(normalized, payload)
            assert reloaded.to_payload() == payload
            assert _explore(normalized, reloaded) == _explore(normalized, abstraction)
        assert compiled, "no compilable process in the design"


class TestPipelineCompiledArtifacts:
    """Seeded designs through the verdict matrix, then their compiled payloads."""

    @pytest.mark.parametrize("generated", design_space(PIPELINE_SEEDS), ids=lambda g: g.name)
    def test_verdicts_agree_and_payloads_match_a_fresh_compile(self, generated):
        context = AnalysisContext()
        result = run_design(generated, context=context)
        assert result.agreed, [d.describe() for d in result.disagreements]
        assert _payload_digest(context, generated) == _payload_digest(
            AnalysisContext(), generated
        )
