"""E18 — Theorem 1 validated end to end: statically accepted compositions are isochronous.

For each network family, the benchmark (a) runs the static criterion, (b)
cross-checks the conclusion by verifying weak endochrony of the composition
on its reaction LTS and isochrony of a representative component pair on
bounded traces.  The paper's claim is qualitative — the criterion never
accepts a non-isochronous composition — and that is what the assertions
re-establish on every benchmark round.
"""

from _record import recorder, timed

from repro.gen.topologies import pipeline_network, star_network
from repro.properties.composition import check_weakly_hierarchic
from repro.properties.isochrony import check_isochrony
from repro.properties.weak_endochrony import check_weak_endochrony

RECORD = recorder("theorem1")


def test_theorem1_on_producer_consumer(benchmark, paper_processes):
    """Criterion + weak endochrony + bounded isochrony on the paper's main example."""
    producer = paper_processes["pc_producer"]
    consumer = paper_processes["pc_consumer"]

    def verify():
        verdict = check_weakly_hierarchic([producer, consumer], composition_name="main")
        weak = check_weak_endochrony(paper_processes["pc_main"])
        iso = check_isochrony(
            producer, consumer, {"a": [True, False], "b": [False, True]}, max_instants=5
        )
        return verdict, weak, iso

    verdict, weak, iso = benchmark(verify)
    assert verdict.weakly_hierarchic()
    assert weak.holds()
    assert iso.holds
    _results, seconds = timed(verify)
    RECORD.record("theorem1 producer/consumer", seconds=seconds)


def test_theorem1_on_pipeline(benchmark):
    """Criterion + weak endochrony on a 3-stage pipeline."""
    components, composition = pipeline_network(3)

    def verify():
        verdict = check_weakly_hierarchic(components, composition=composition)
        weak = check_weak_endochrony(composition, max_states=256)
        return verdict, weak

    verdict, weak = benchmark(verify)
    assert verdict.weakly_hierarchic() == weak.holds()
    assert verdict.weakly_hierarchic()


def test_theorem1_on_star(benchmark):
    """Criterion + weak endochrony on a star of one source and two sinks."""
    components, composition = star_network(2)

    def verify():
        verdict = check_weakly_hierarchic(components, composition=composition)
        weak = check_weak_endochrony(composition, max_states=256)
        return verdict, weak

    verdict, weak = benchmark(verify)
    assert verdict.weakly_hierarchic()
    assert weak.holds()


def test_theorem1_rejects_bad_component(benchmark, paper_processes):
    """The criterion refuses a composition with a non-endochronous component."""
    components = [paper_processes["composition"], paper_processes["pc_producer"]]
    verdict = benchmark(check_weakly_hierarchic, components)
    assert not verdict.weakly_hierarchic()
