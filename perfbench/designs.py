"""Workload inputs and layer counters, through the public API only.

Every design reaches the program as printed Signal source text: corpus
entries are regenerated from their recorded seeds and printed with
``format_normalized_source``; the families ROADMAP names (buffers, arbiter
trees, pipelines, the derivative chain) are built and printed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import CORPUS, PassRecord

#: artifact-graph stages reported per layer (``Design.stats()["stages"]``)
STAGES = (
    "normalize",
    "analysis",
    "hierarchy",
    "compiled",
    "lts",
    "engine",
    "diagnosis",
    "obligations",
    "verdict",
)


@dataclass(frozen=True)
class SourceDesign:
    name: str
    source: str
    digest: Optional[str] = None  # the corpus's recorded digest, when known


def print_components(components) -> str:
    from repro.lang.printer import format_normalized_source

    return "\n\n".join(format_normalized_source(component) for component in components)


def load_corpus():
    from repro.gen.corpus import Corpus

    return Corpus.load(CORPUS)


def corpus_designs(corpus, limit: Optional[int] = None) -> List[Tuple[object, SourceDesign]]:
    """``(entry, printed design)`` for every corpus entry (or the first few)."""
    from repro.gen.topologies import sample_design

    entries = corpus.entries if limit is None else corpus.entries[:limit]
    designs = []
    for entry in entries:
        generated = sample_design(entry.seed, depth=entry.depth)
        designs.append(
            (entry, SourceDesign(entry.name, print_components(generated.components), entry.digest))
        )
    return designs


def family_design(name: str) -> SourceDesign:
    """``buffers_<n>``, ``arbiter_<d>`` or ``pipeline_<n>`` as printed source."""
    from repro.gen.topologies import arbiter_tree, chain_of_buffers, pipeline_network

    family, size = name.rsplit("_", 1)
    build = {
        "buffers": chain_of_buffers,
        "arbiter": arbiter_tree,
        "pipeline": pipeline_network,
    }[family]
    components, _composition = build(int(size))
    return SourceDesign(name, print_components(components))


def derivative_chain(stages: int) -> SourceDesign:
    """A deep single-clock dataflow whose values stay bounded.

    ``u1`` counts the ticks of ``c`` and each ``g_i`` is the finite
    difference of the previous stage, so magnitudes stay small however
    long the run: a fleet of these never leaves the int64 fragment.
    """
    from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
    from repro.lang.printer import format_process

    builder = ProcessBuilder("deriv", inputs=["c"], outputs=[f"g{stages}"])
    builder.local("u1")
    builder.constrain(tick("u1"), when_true("c"))
    builder.define("u1", const(1) + signal("u1").pre(0))
    previous = "u1"
    for index in range(1, stages + 1):
        name = f"g{index}"
        if index < stages:
            builder.local(name)
        builder.define(name, signal(previous) - signal(previous).pre(0))
        previous = name
    return SourceDesign(f"deriv_{stages}", format_process(builder.build()))


# -- layer counters -----------------------------------------------------------------
def managers_of(design) -> List[object]:
    """The design's shared BDD manager plus every compiled relation's own."""
    managers = [design.context.manager]
    for _key, abstraction in design.context.graph.nodes("compiled"):
        if abstraction is not None:
            managers.append(abstraction.manager)
    return managers


def count_design(design, record: PassRecord) -> None:
    """Add one design session's kernel and artifact-graph counters."""
    for manager in managers_of(design):
        stats = manager.stats()
        record.add_count("bdd.apply_calls", stats["apply_calls"])
        record.add_count("bdd.apply_cache_lookups", stats["apply_cache_lookups"])
        record.add_count("bdd.apply_cache_hits", stats["apply_cache_hits"])
        record.add_count("bdd.gc_runs", stats["gc_runs"])
        record.add_count("bdd.reorder_runs", stats["reorder_runs"])
        record.add_count("bdd.sift_s", stats["sift_seconds"])
        record.max_count("bdd.peak_nodes", stats["peak_nodes"])
    stages = design.stats()["stages"]
    for stage in STAGES:
        counters = stages.get(stage, {})
        record.add_count(f"api.artifacts.computed.{stage}", counters.get("computed", 0))
        record.add_count(f"api.artifacts.hits.{stage}", counters.get("hits", 0))


def count_verdict(verdict, record: PassRecord) -> None:
    record.add_count("mc.states_expanded", verdict.cost.states)
    record.add_count("mc.transitions", verdict.cost.transitions)


def product_engine(design, max_states: int, engine: str = "compiled"):
    """The on-the-fly engine ``Design.verify`` builds for model checking.

    Resolved through the same ``AnalysisContext.onthefly`` node (same
    arguments) as the verification backends, so the following ``verify``
    call reuses it: timing this call isolates per-component compilation.
    """
    context = design.context
    components = list(design.components)
    if len(components) >= 2:
        try:
            return context.onthefly(
                components,
                max_states,
                name=design.composition.name,
                types=design.composition.types,
                engine=engine,
            )
        except ValueError:
            pass
    return context.onthefly([design.composition], max_states, engine=engine)


def kernel_metrics(counts: Dict[str, float]) -> Dict[str, float]:
    lookups = counts.get("bdd.apply_cache_lookups", 0)
    return {
        "bdd.apply_calls": counts.get("bdd.apply_calls", 0),
        "bdd.apply_cache_hit_ratio": (
            counts.get("bdd.apply_cache_hits", 0) / lookups if lookups else 0.0
        ),
        "bdd.peak_nodes": counts.get("bdd.peak_nodes", 0),
        "bdd.gc_runs": counts.get("bdd.gc_runs", 0),
        "bdd.reorder_runs": counts.get("bdd.reorder_runs", 0),
        "bdd.sift_s": counts.get("bdd.sift_s", 0.0),
    }
