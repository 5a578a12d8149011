"""Backend-differential suite: the array kernel against the reference oracle.

The pluggable-kernel contract (:class:`repro.bdd.backend.BDDBackend`) is not
just "same truth tables": every backend owes the *same satisfying
assignments in the same order* and *byte-identical canonical dumps* (and
therefore equal artifact digests).  This suite enforces that three ways:

* **property level** — random straight-line boolean programs built on both
  backends side by side (hypothesis), with the array kernel also run in
  forced-vectorized mode (``scalar_budget=0``) so the numpy paths, not the
  inherited scalar fallbacks, are what faces the oracle;
* **corpus level** — the committed 60-design corpus re-verified under an
  array-backed :class:`~repro.api.session.AnalysisContext`: the recorded
  verdicts and design digests came from the reference kernel, so zero drift
  *is* the differential verdict;
* **pipeline level** — seeded :mod:`repro.gen` designs pushed through the
  full verdict matrix under both backends, comparing every verdict and the
  compiled step relation's payload bytes.

CI's ``backend-differential`` job additionally reruns the 200-design
``repro.gen differential`` matrix with ``REPRO_BDD_BACKEND=array``; the
seed subset here keeps the tier-1 suite fast (``REPRO_DIFFERENTIAL_SEEDS``
widens it).
"""

import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import AnalysisContext
from repro.bdd.backend import available_backends, create_manager, load_manager
from repro.gen.corpus import Corpus, check_corpus
from repro.gen.differential import run_design
from repro.gen.topologies import design_space

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_CORPUS = REPO_ROOT / "corpus" / "corpus.json"

#: seeds for the in-suite pipeline differential (CI's dedicated job runs 200)
DIFFERENTIAL_SEEDS = range(int(os.environ.get("REPRO_DIFFERENTIAL_SEEDS", "10")))

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


def _array_managers():
    """The array kernel in its default hybrid mode and forced-vectorized."""
    return [
        ("array", create_manager(VARIABLES, backend="array")),
        ("array[vectorized]", create_manager(VARIABLES, backend="array", scalar_budget=0)),
    ]


class TestPropertyDifferential:
    """Random functions on both backends: same answers, same order, same bytes."""

    @given(program=_programs)
    @settings(max_examples=60, deadline=None)
    def test_queries_and_dump_agree(self, program):
        reference = create_manager(VARIABLES, backend="reference")
        expected_node = _build(reference, program)
        expected_rows = list(reference.satisfy_all(expected_node, VARIABLES))
        expected_matrix = reference.satisfy_matrix(expected_node, VARIABLES)
        expected_dump = reference.dump([expected_node])
        for label, manager in _array_managers():
            node = _build(manager, program)
            # same satisfying assignments, in the same order (not as sets)
            assert list(manager.satisfy_all(node, VARIABLES)) == expected_rows, label
            assert manager.satisfy_matrix(node, VARIABLES) == expected_matrix, label
            assert manager.count(node, VARIABLES) == len(expected_rows), label
            assert manager.support(node) == reference.support(expected_node), label
            assert manager.satisfy_one(node) == reference.satisfy_one(expected_node), label
            # byte-identical canonical serialization => equal artifact digests
            assert manager.dump([node]) == expected_dump, label

    @given(program=_programs, assignment=_assignments)
    @settings(max_examples=60, deadline=None)
    def test_restrict_agrees(self, program, assignment):
        reference = create_manager(VARIABLES, backend="reference")
        expected = reference.dump(
            [reference.restrict(_build(reference, program), assignment)]
        )
        for label, manager in _array_managers():
            node = manager.restrict(_build(manager, program), assignment)
            assert manager.dump([node]) == expected, label

    @given(
        left=_programs,
        right=_programs,
        quantified=st.sets(st.sampled_from(VARIABLES)),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantified_results_dump_identically(self, left, right, quantified):
        def quantify(manager):
            f, g = _build(manager, left), _build(manager, right)
            return manager.dump(
                [
                    manager.and_exists(f, g, quantified),
                    manager.exists(f, quantified),
                    manager.forall(g, quantified),
                    manager.rename(f, {"p": "q", "q": "r"}),
                ]
            )

        expected = quantify(create_manager(VARIABLES, backend="reference"))
        for label, manager in _array_managers():
            assert quantify(manager) == expected, label

    @given(left=_programs, right=_programs)
    @settings(max_examples=60, deadline=None)
    def test_non_constructive_decisions_agree(self, left, right):
        def decide(manager):
            f, g = _build(manager, left), _build(manager, right)
            not_f = ~f
            size = manager.size()
            answers = [
                (manager.leq(f, g), manager.intersects(f, g), manager.satisfy_one_and(f, g)),
                (manager.leq(g, f), manager.intersects(g, not_f), manager.satisfy_one_and(g, not_f)),
            ]
            assert manager.size() == size, f"{manager.backend_name}: a decision interned a node"
            assert answers[0] == (
                f.implies(g).is_true(), (f & g).is_satisfiable(), (f & g).satisfy_one()
            )
            return answers

        expected = decide(create_manager(VARIABLES, backend="reference"))
        for label, manager in _array_managers():
            assert decide(manager) == expected, label

    @given(program=_programs)
    @settings(max_examples=30, deadline=None)
    def test_cross_backend_load_is_lossless(self, program):
        # a payload dumped by either kernel loads into the other unchanged —
        # warm artifact stores stay valid when a deployment flips backends
        reference = create_manager(VARIABLES, backend="reference")
        payload = reference.dump([_build(reference, program)])
        manager, (root,) = load_manager(payload, backend="array")
        assert manager.backend_name == "array"
        assert manager.dump([root]) == payload
        back, (again,) = load_manager(manager.dump([root]), backend="reference")
        assert back.dump([again]) == payload


class TestCorpusDifferential:
    """The committed corpus, recorded by the reference kernel, re-verified
    under the array kernel: zero digest drift, zero verdict drift."""

    def test_committed_corpus_is_clean_under_the_array_backend(self):
        corpus = Corpus.load(COMMITTED_CORPUS)
        assert len(corpus) >= 50
        drift = check_corpus(corpus, context=AnalysisContext(bdd_backend="array"))
        assert drift == [], [item.describe() for item in drift]


class TestPipelineDifferential:
    """Seeded generated designs through the full verdict matrix, both backends."""

    @pytest.mark.parametrize("generated", design_space(DIFFERENTIAL_SEEDS), ids=lambda g: g.name)
    def test_verdicts_and_compiled_payloads_agree(self, generated):
        contexts = {
            backend: AnalysisContext(bdd_backend=backend)
            for backend in available_backends()
        }
        results = {
            backend: run_design(generated, context=context)
            for backend, context in contexts.items()
        }
        reference = results["reference"]
        assert reference.agreed, [d.describe() for d in reference.disagreements]
        for backend, result in results.items():
            assert result.verdicts == reference.verdicts, backend
        # the compiled step relations must serialize to the same bytes
        digests = {}
        for backend, context in contexts.items():
            payloads = []
            for component in generated.components:
                abstraction = context.compiled(component)
                if abstraction is not None:
                    payloads.append(abstraction.to_payload())
            digests[backend] = hashlib.sha256(
                json.dumps(payloads, sort_keys=True).encode()
            ).hexdigest()
        assert len(set(digests.values())) == 1, digests
