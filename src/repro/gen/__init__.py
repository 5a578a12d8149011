"""``repro.gen`` — grammar-driven scenario generation and differential testing.

The subsystem has four layers, each usable on its own:

* :mod:`repro.gen.grammar` — a typed grammar over the process language:
  rules keyed by :class:`~repro.gen.grammar.Sort` (value kind × clock
  class), depth-bounded unique enumeration, seeded sampling, whole-component
  derivation (:func:`~repro.gen.grammar.sample_component`).
* :mod:`repro.gen.topologies` — multi-component design families (pipelines,
  stars, buffer chains, token rings, arbiter trees, crossbars, clock
  dividers, mode automata, seeded-random networks) and the seeded design
  sampler :func:`~repro.gen.topologies.sample_design`.
* :mod:`repro.gen.differential` — every design through all four
  verification backends, held to the documented per-property agreement
  contract, with disagreements shrunk to minimal counterexamples.
* :mod:`repro.gen.corpus` — the persisted corpus of designs + known
  verdicts: regression oracle (:func:`~repro.gen.corpus.check_corpus`) and
  warm-store seed (:func:`~repro.gen.corpus.seed_store`).

``python -m repro.gen`` / ``repro-gen`` is the command-line entry point.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Corpus": ".corpus",
    "CorpusEntry": ".corpus",
    "Drift": ".corpus",
    "build_corpus": ".corpus",
    "build_entry": ".corpus",
    "check_corpus": ".corpus",
    "seed_store": ".corpus",
    "CONTRACTS": ".differential",
    "METHODS": ".differential",
    "PROPERTIES": ".differential",
    "AgreementContract": ".differential",
    "DifferentialReport": ".differential",
    "DifferentialResult": ".differential",
    "Disagreement": ".differential",
    "FormulationGap": ".differential",
    "ShrunkCounterexample": ".differential",
    "run_design": ".differential",
    "run_matrix": ".differential",
    "shrink": ".differential",
    "verdict_matrix": ".differential",
    "BOOL": ".grammar",
    "BOOL_SAMPLED": ".grammar",
    "NUM": ".grammar",
    "NUM_SAMPLED": ".grammar",
    "SORTS": ".grammar",
    "ComponentSpec": ".grammar",
    "Grammar": ".grammar",
    "Rule": ".grammar",
    "Sort": ".grammar",
    "build_component": ".grammar",
    "default_rules": ".grammar",
    "enumerate_components": ".grammar",
    "sample_component": ".grammar",
    "FAMILIES": ".topologies",
    "GeneratedDesign": ".topologies",
    "arbiter_tree": ".topologies",
    "chain_of_buffers": ".topologies",
    "clock_divider": ".topologies",
    "crossbar": ".topologies",
    "design_space": ".topologies",
    "independent_components": ".topologies",
    "mode_automaton": ".topologies",
    "pipeline_network": ".topologies",
    "random_network": ".topologies",
    "sample_design": ".topologies",
    "star_network": ".topologies",
    "token_ring": ".topologies",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    # grammar
    "Sort", "Rule", "Grammar", "ComponentSpec", "SORTS",
    "BOOL", "NUM", "BOOL_SAMPLED", "NUM_SAMPLED",
    "default_rules", "build_component", "sample_component", "enumerate_components",
    # topologies
    "FAMILIES", "GeneratedDesign", "sample_design", "design_space",
    "independent_components", "pipeline_network", "star_network",
    "chain_of_buffers", "token_ring", "arbiter_tree", "crossbar",
    "clock_divider", "mode_automaton", "random_network",
    # differential
    "METHODS", "PROPERTIES", "CONTRACTS", "AgreementContract",
    "Disagreement", "FormulationGap", "DifferentialResult",
    "DifferentialReport", "ShrunkCounterexample",
    "verdict_matrix", "run_design", "run_matrix", "shrink",
    # corpus
    "Corpus", "CorpusEntry", "Drift", "build_corpus", "build_entry",
    "check_corpus", "seed_store",
]
