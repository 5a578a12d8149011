"""E17 / E18 — the paper's central cost claim: static criterion vs. state-space exploration.

The paper argues that checking weak endochrony by model checking "requires an
exhaustive exploration of the state-space", while the weakly hierarchic
criterion only runs the (polynomial, BDD-backed) clock calculus per component
and on the composition.  These benchmarks sweep the number of independently
paced components in a pipeline network and time the two approaches through
``Design.verify("weak-endochrony", method=...)``; the *shape* expected from
the paper is that the model-checking cost grows much faster with the
component count (its reaction space is the product of the per-component
reaction spaces), while the static criterion stays flat.

A fresh session is built per measured round so each approach pays its full
cost (bench_api_session.py measures the complementary claim: what a *shared*
session saves on repeated queries).

Run with:  pytest benchmarks/bench_static_vs_modelcheck.py --benchmark-only
"""

import pytest

from _record import recorder, timed

from repro import Design
from repro.gen.topologies import independent_components, pipeline_network, star_network

RECORD = recorder("static_vs_modelcheck")

PIPELINE_SIZES = (1, 2, 3, 4)
INDEPENDENT_SIZES = (2, 4, 6)


def _design(components, composition):
    return Design(
        name=composition.name, components=list(components), composition=composition
    )


@pytest.mark.parametrize("size", PIPELINE_SIZES)
def test_static_criterion_on_pipeline(benchmark, size):
    """E17 (static side): the weakly hierarchic criterion on an N-stage pipeline."""
    components, composition = pipeline_network(size)

    def check():
        return _design(components, composition).verify("weak-endochrony", method="static")

    verdict = benchmark(check)
    assert verdict.holds
    assert verdict.cost.states == 0  # no exploration at all
    _verdict, seconds = timed(check)
    RECORD.record(f"pipeline_{size} static", seconds=seconds, states=0)


@pytest.mark.parametrize("size", PIPELINE_SIZES)
def test_model_checking_on_pipeline(benchmark, size):
    """E17 (exploration side): Definition 2 checked on the composition's reaction LTS."""
    components, composition = pipeline_network(size)

    def explore():
        return _design(components, composition).verify("weak-endochrony", method="explicit")

    verdict = benchmark(explore)
    assert verdict.holds
    assert verdict.cost.transitions >= 2**size  # the reaction space grows exponentially
    _verdict, seconds = timed(explore)
    RECORD.record(
        f"pipeline_{size} explicit", seconds=seconds, states=verdict.cost.states
    )


@pytest.mark.parametrize("size", INDEPENDENT_SIZES)
def test_static_criterion_on_independent_components(benchmark, size):
    """E17: the static criterion also scales on fully independent components."""
    components, composition = independent_components(size)

    def check():
        return _design(components, composition).verify("weak-endochrony", method="static")

    verdict = benchmark(check)
    assert verdict.holds


@pytest.mark.parametrize("size", (2, 3))
def test_model_checking_on_independent_components(benchmark, size):
    """E17: the exploration side on independent components (kept small on purpose)."""
    components, composition = independent_components(size)

    def explore():
        return _design(components, composition).verify("weak-endochrony", method="explicit")

    verdict = benchmark(explore)
    assert verdict.holds


def test_star_network_criterion(benchmark):
    """E18: a statically validated star network (source + 3 sinks) is weakly hierarchic."""
    components, composition = star_network(3)

    def check():
        return _design(components, composition).verify("weakly-hierarchic")

    verdict = benchmark(check)
    assert verdict.holds


def test_reaction_space_growth_is_exponential(benchmark):
    """E17 (shape check): the LTS transition count grows exponentially with the component count."""

    def measure():
        counts = []
        for size in (1, 2, 3):
            components, composition = independent_components(size)
            verdict = _design(components, composition).verify(
                "weak-endochrony", method="explicit"
            )
            counts.append(verdict.cost.transitions)
        return counts

    counts = benchmark(measure)
    assert counts[0] < counts[1] < counts[2]
    assert counts[2] >= counts[1] * 2
