"""Topology generators: grammar components composed into multi-component designs.

Where :mod:`repro.gen.grammar` derives single well-typed components, this
module wires components into the multi-component shapes the compositional
criterion is about — shared signals between independently clocked
endochronous components:

* the benchmark families :func:`independent_components`,
  :func:`pipeline_network`, :func:`star_network`, :func:`chain_of_buffers`;
* structural families: :func:`token_ring` (a closed delay ring),
  :func:`arbiter_tree` (a binary tree of endochronous merges),
  :func:`crossbar` (sources × sinks through per-crossing relays),
  :func:`clock_divider` (a chain of by-2 subsampling stages — genuine
  clock-hierarchy depth), :func:`mode_automaton` (a rotating one-hot mode
  controller sampling its output per mode);
* :func:`random_network` — the generic grammar workout: seeded-random
  components wired into a seeded-random DAG.
* :func:`derivative_chain` — one deep single-clock component, the scaling
  workload for clock calculus, canonical digests and fleet deployment.

Every family returns ``(components, composition)`` over
:class:`~repro.lang.normalize.NormalizedProcess`, the same convention the
benchmarks have always used.  :func:`sample_design` draws one
:class:`GeneratedDesign` — family, parameters and component bodies — from an
explicit seed (never wall-clock), and :func:`design_space` iterates the
seeded matrix used by CI's differential job and the corpus builder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.gen.grammar import (
    BOOL,
    BOOL_SAMPLED,
    NUM,
    NUM_SAMPLED,
    ComponentSpec,
    Grammar,
    Sort,
    sample_component,
)
from repro.lang.ast import ProcessDefinition
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_false, when_true
from repro.lang.normalize import NormalizedProcess, normalize

Family = Tuple[List[NormalizedProcess], NormalizedProcess]

__all__ = [
    "Family",
    "FAMILIES",
    "GeneratedDesign",
    "arbiter_component",
    "arbiter_tree",
    "chain_of_buffers",
    "clock_divider",
    "crossbar",
    "derivative_chain",
    "design_space",
    "divider_stage",
    "independent_components",
    "mode_automaton",
    "mode_automaton_component",
    "pipeline_network",
    "random_network",
    "sample_design",
    "star_network",
    "token_ring",
]


def _compose(
    components: Sequence[NormalizedProcess], name: str
) -> Family:
    composition = components[0]
    for component in components[1:]:
        composition = composition.compose(component)
    composition.name = name
    return list(components), composition


# ---------------------------------------------------------------------------
# Benchmark families: endochronous components wired by shared signals
# ---------------------------------------------------------------------------

def _counter_component(index: int) -> ProcessDefinition:
    """An endochronous counter paced by its own boolean activation input."""
    activation = f"c{index}"
    output = f"u{index}"
    builder = ProcessBuilder(f"counter{index}", inputs=[activation], outputs=[output])
    builder.constrain(tick(output), when_true(activation))
    builder.define(output, const(1) + signal(output).pre(0))
    return builder.build()


def independent_components(count: int) -> Family:
    """``count`` endochronous counters with no shared signal."""
    components = [normalize(_counter_component(index)) for index in range(count)]
    return _compose(components, f"independent_{count}")


def _relay_component(index: int, input_signal: str, output_signal: str) -> ProcessDefinition:
    """A relay adding one to its input, paced by its own activation input."""
    activation = f"c{index}"
    builder = ProcessBuilder(
        f"relay{index}", inputs=[activation, input_signal], outputs=[output_signal]
    )
    builder.constrain(tick(input_signal), when_true(activation))
    builder.define(output_signal, signal(input_signal) + const(1))
    return builder.build()


def pipeline_network(length: int) -> Family:
    """A chain of ``length`` relays; stage ``i`` feeds stage ``i + 1``.

    Every stage is endochronous (rooted at its activation input); the
    composition is multi-rooted and exhibits one reported clock constraint
    ``[c_i] = [c_{i+1}]`` per connection, exactly the situation the
    compositional criterion is designed for.
    """
    components: List[NormalizedProcess] = []
    for index in range(length):
        input_signal = "x0" if index == 0 else f"x{index}"
        output_signal = f"x{index + 1}"
        components.append(normalize(_relay_component(index, input_signal, output_signal)))
    return _compose(components, f"pipeline_{length}")


def star_network(branches: int) -> Family:
    """A source feeding ``branches`` independent consumers of its output."""
    source_builder = ProcessBuilder("source", inputs=["c0"], outputs=["x"])
    source_builder.constrain(tick("x"), when_true("c0"))
    source_builder.define("x", const(1) + signal("x").pre(0))
    components = [normalize(source_builder.build())]
    for index in range(1, branches + 1):
        consumer_builder = ProcessBuilder(
            f"sink{index}", inputs=[f"c{index}", "x"], outputs=[f"y{index}"]
        )
        consumer_builder.constrain(tick("x"), when_true(f"c{index}"))
        consumer_builder.define(f"y{index}", signal("x") + const(index))
        components.append(normalize(consumer_builder.build()))
    return _compose(components, f"star_{branches}")


def chain_of_buffers(length: int) -> Family:
    """``length`` one-place buffers in sequence (a generalized LTTA bus)."""
    from repro.library.basic import buffer_process  # local: avoids an import cycle

    components: List[NormalizedProcess] = []
    for index in range(length):
        input_signal = "y0" if index == 0 else f"y{index}"
        output_signal = f"y{index + 1}"
        definition = buffer_process(
            name=f"buffer{index}", input_name=input_signal, output_name=output_signal
        )
        components.append(normalize(definition))
    return _compose(components, f"buffer_chain_{length}")


# ---------------------------------------------------------------------------
# New structural families
# ---------------------------------------------------------------------------

def token_ring(size: int) -> Family:
    """``size`` stations passing a delayed token around a closed ring.

    Station ``i`` relays ``t_{i-1}`` to ``t_i`` through a one-instant delay,
    paced by its own activation — the delay at every station is what keeps
    the closed ring free of instantaneous cycles.
    """
    if size < 2:
        raise ValueError("a token ring needs at least 2 stations")
    components: List[NormalizedProcess] = []
    for index in range(size):
        previous = f"t{(index - 1) % size}"
        builder = ProcessBuilder(
            f"station{index}", inputs=[f"c{index}", previous], outputs=[f"t{index}"]
        )
        builder.constrain(tick(previous), when_true(f"c{index}"))
        builder.define(f"t{index}", signal(previous).pre(1 if index == 0 else 0))
        components.append(normalize(builder.build()))
    return _compose(components, f"ring_{size}")


def arbiter_component(
    name: str, select: str, left: str, right: str, output: str
) -> ProcessDefinition:
    """One endochronous two-way arbiter: the paper's merge shape.

    ``output = (left when select) default (right when not select)`` with the
    branch clocks pinned to the two values of ``select`` — the process's
    whole timing is reconstructed from the flow of ``select``.
    """
    negated = f"{name}_nsel"
    builder = ProcessBuilder(name, inputs=[select, left, right], outputs=[output])
    builder.local(negated)
    builder.define(negated, signal(select).not_())
    builder.define(
        output,
        signal(left).when(signal(select)).default(signal(right).when(signal(negated))),
    )
    builder.constrain(tick(left), when_true(select))
    builder.constrain(tick(right), when_false(select))
    return builder.build()


def arbiter_tree(depth: int) -> Family:
    """A complete binary tree of two-way arbiters granting one of 2^depth requests.

    Leaves are external request inputs; every internal node is an
    endochronous merge with its own selector input, so the tree composes
    ``2^depth - 1`` components sharing one wire per edge.
    """
    if depth < 1:
        raise ValueError("an arbiter tree needs depth >= 1")
    components: List[NormalizedProcess] = []
    # level `depth` holds the external requests r0.., each internal level
    # halves the signal count until the root grant g0_0
    signals = [f"r{index}" for index in range(2 ** depth)]
    for level in range(depth, 0, -1):
        next_signals = []
        for index in range(2 ** (level - 1)):
            name = f"arb{level - 1}_{index}"
            output = f"g{level - 1}_{index}"
            definition = arbiter_component(
                name,
                select=f"s{level - 1}_{index}",
                left=signals[2 * index],
                right=signals[2 * index + 1],
                output=output,
            )
            components.append(normalize(definition))
            next_signals.append(output)
        signals = next_signals
    return _compose(components, f"arbiter_{depth}")


def crossbar(sources: int, sinks: int) -> Family:
    """``sources`` producers fanned out to ``sinks`` consumers through
    per-crossing relays: every (i, j) crossing is its own component with its
    own activation, so the composition carries sources × sinks shared wires.
    """
    components: List[NormalizedProcess] = []
    for index in range(sources):
        builder = ProcessBuilder(f"src{index}", inputs=[f"p{index}"], outputs=[f"x{index}"])
        builder.constrain(tick(f"x{index}"), when_true(f"p{index}"))
        builder.define(f"x{index}", const(1) + signal(f"x{index}").pre(0))
        components.append(normalize(builder.build()))
    for i in range(sources):
        for j in range(sinks):
            builder = ProcessBuilder(
                f"xbar{i}_{j}", inputs=[f"e{i}_{j}", f"x{i}"], outputs=[f"z{i}_{j}"]
            )
            builder.constrain(tick(f"x{i}"), when_true(f"e{i}_{j}"))
            builder.define(f"z{i}_{j}", signal(f"x{i}") + const(j))
            components.append(normalize(builder.build()))
    for j in range(sinks):
        inputs = [f"z{i}_{j}" for i in range(sources)]
        builder = ProcessBuilder(f"snk{j}", inputs=inputs, outputs=[f"y{j}"])
        total = signal(inputs[0])
        for name in inputs[1:]:
            total = total + signal(name)
        builder.define(f"y{j}", total)
        components.append(normalize(builder.build()))
    return _compose(components, f"crossbar_{sources}x{sinks}")


def divider_stage(name: str, input_signal: str, output_signal: str) -> ProcessDefinition:
    """One by-2 clock divider: emit every other input instant.

    A boolean toggle flips at every input instant; the output samples the
    input on the toggle's true instants, so ``output^`` is a proper
    subclock of ``input^`` — one extra level of clock hierarchy per stage.
    """
    toggle = f"{name}_t"
    previous = f"{name}_tp"
    builder = ProcessBuilder(name, inputs=[input_signal], outputs=[output_signal])
    builder.local(toggle, previous)
    builder.define(toggle, signal(previous).not_())
    builder.define(previous, signal(toggle).pre(False))
    builder.constrain(tick(toggle), tick(input_signal))
    builder.define(output_signal, signal(input_signal).when(signal(toggle)))
    return builder.build()


def clock_divider(stages: int) -> Family:
    """A chain of ``stages`` by-2 dividers: stage ``i`` ticks half as often
    as stage ``i - 1``, building a clock hierarchy ``stages`` levels deep
    from a single root input."""
    if stages < 1:
        raise ValueError("a divider chain needs at least 1 stage")
    components = [
        normalize(divider_stage(f"div{index}", f"k{index}", f"k{index + 1}"))
        for index in range(stages)
    ]
    return _compose(components, f"divider_{stages}")


def derivative_chain(stages: int) -> ProcessDefinition:
    """A deep single-clock dataflow whose values stay bounded.

    ``u1`` counts the ticks of ``c`` and each ``g_i`` is the finite
    difference of the previous stage, so every signal shares one clock and
    magnitudes stay small however long the run: a fleet of these never
    leaves the int64 fragment.
    """
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
    return builder.build()


def mode_automaton_component(
    name: str, modes: int, input_signal: str, activation: Optional[str] = None
) -> ProcessDefinition:
    """A rotating one-hot mode controller sampling its input per mode.

    ``modes`` boolean state bits rotate one position per activation instant
    (exactly one is true at a time); output ``j`` carries the input sampled
    on mode ``j``'s instants — ``modes`` sibling subclocks under one root.
    """
    if modes < 2:
        raise ValueError("a mode automaton needs at least 2 modes")
    activation = activation or f"{name}_go"
    builder = ProcessBuilder(
        name,
        inputs=[activation, input_signal],
        outputs=[f"{name}_y{j}" for j in range(modes)],
    )
    builder.constrain(tick(input_signal), when_true(activation))
    bits = [f"{name}_m{j}" for j in range(modes)]
    builder.local(*bits)
    for j in range(modes):
        # bit j holds yesterday's bit j-1: a one-hot token rotating through
        # the modes, initially parked on mode 0
        builder.define(bits[j], signal(bits[(j - 1) % modes]).pre(j == 0))
    builder.constrain(tick(bits[0]), tick(input_signal))
    for j in range(modes):
        builder.define(f"{name}_y{j}", signal(input_signal).when(signal(bits[j])))
    return builder.build()


def mode_automaton(modes: int) -> Family:
    """A producer feeding a rotating ``modes``-way mode automaton."""
    producer = ProcessBuilder("feeder", inputs=["p0"], outputs=["v"])
    producer.constrain(tick("v"), when_true("p0"))
    producer.define("v", const(1) + signal("v").pre(0))
    controller = mode_automaton_component("modes", modes, "v")
    components = [normalize(producer.build()), normalize(controller)]
    return _compose(components, f"modes_{modes}")


# ---------------------------------------------------------------------------
# Grammar-wired networks and the design sampler
# ---------------------------------------------------------------------------

def random_network(
    rng: random.Random,
    size: int = 2,
    depth: int = 2,
    grammar: Optional[Grammar] = None,
    name: str = "network",
) -> Family:
    """``size`` grammar-sampled components wired into a seeded-random DAG.

    Component ``i`` draws its interface shape (numbers of boolean/numeric
    inputs, output sorts, state feedback) and its output expressions from
    ``rng``; each data input is then either wired to an output of an
    earlier component (a shared signal, the compositional situation) or
    left as a fresh external input.
    """
    grammar = grammar or Grammar()
    components: List[NormalizedProcess] = []
    available: List[Tuple[str, str]] = []  # (signal, kind) of produced outputs
    for index in range(size):
        component_name = f"{name}{index}"
        inputs: List[Tuple[str, str]] = []
        for position in range(rng.randint(1, 2)):
            kind = rng.choice(["bool", "num"])
            candidates = [entry for entry in available if entry[1] == kind]
            if candidates and rng.random() < 0.6:
                wired = candidates[rng.randrange(len(candidates))]
                if wired not in inputs:
                    inputs.append(wired)
                    continue
            inputs.append((f"{component_name}_i{position}", kind))
        outputs: List[Tuple[str, Sort]] = []
        for position in range(rng.randint(1, 2)):
            sort = rng.choice([BOOL, NUM, BOOL, NUM, BOOL_SAMPLED, NUM_SAMPLED])
            outputs.append((f"{component_name}_o{position}", sort))
        spec = ComponentSpec(
            name=component_name,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            state=rng.random() < 0.7,
            depth=depth,
        )
        components.append(normalize(sample_component(spec, rng, grammar)))
        # only master-clock outputs are re-wirable: a sampled output's clock
        # is a proper subclock, and pacing it with a downstream activation
        # (`x^ = [go]`) would contradict its producer's clock
        available.extend(
            (output, sort.kind) for output, sort in outputs if sort.clock == "sync"
        )
    return _compose(components, name)


#: families the seeded sampler draws from; each entry maps a parameter draw
#: onto one family call (sizes kept small so sampled designs stay cheap to
#: verify — corpus and differential throughput multiply over many designs)
FAMILIES: Tuple[str, ...] = (
    "pipeline",
    "star",
    "buffers",
    "ring",
    "arbiter",
    "crossbar",
    "divider",
    "modes",
    "network",
)


@dataclass(frozen=True)
class GeneratedDesign:
    """One generated design: its components, composition and provenance.

    ``seed``/``family``/``params`` are the full provenance — re-running
    :func:`sample_design` with the same seed reproduces the same components
    (and therefore the same :func:`~repro.lang.printer.canonical_digest`).
    """

    name: str
    family: str
    components: Tuple[NormalizedProcess, ...]
    composition: NormalizedProcess
    seed: Optional[int] = None
    params: Mapping[str, object] = field(default_factory=dict)

    def design(self, context: Optional[object] = None):
        """This generated design as a :class:`repro.api.Design` session."""
        from repro.api.session import Design

        return Design.from_generated(self, context=context)


def _family(family: str, rng: random.Random, depth: int) -> Tuple[Family, Dict[str, object]]:
    if family == "pipeline":
        length = rng.randint(2, 4)
        return pipeline_network(length), {"length": length}
    if family == "star":
        branches = rng.randint(2, 3)
        return star_network(branches), {"branches": branches}
    if family == "buffers":
        length = rng.randint(1, 2)
        return chain_of_buffers(length), {"length": length}
    if family == "ring":
        size = rng.randint(2, 4)
        return token_ring(size), {"size": size}
    if family == "arbiter":
        tree_depth = rng.randint(1, 2)
        return arbiter_tree(tree_depth), {"depth": tree_depth}
    if family == "crossbar":
        sources, sinks = rng.randint(1, 2), rng.randint(1, 2)
        return crossbar(sources, sinks), {"sources": sources, "sinks": sinks}
    if family == "divider":
        stages = rng.randint(1, 3)
        return clock_divider(stages), {"stages": stages}
    if family == "modes":
        modes = rng.randint(2, 4)
        return mode_automaton(modes), {"modes": modes}
    if family == "network":
        size = rng.randint(1, 3)
        return (
            random_network(rng, size=size, depth=depth),
            {"size": size, "depth": depth},
        )
    raise ValueError(f"unknown design family {family!r}; expected one of {FAMILIES}")


def sample_design(
    seed: int,
    families: Sequence[str] = FAMILIES,
    depth: int = 2,
) -> GeneratedDesign:
    """One seeded design: family, parameters and component bodies from ``seed``.

    Deterministic from the explicit seed — the sampler never consults
    wall-clock time or global random state — so ``seed`` is a replayable
    identity suitable for CI matrices and corpus entries.
    """
    rng = random.Random(seed)
    family = families[rng.randrange(len(families))]
    (components, composition), params = _family(family, rng, depth)
    return GeneratedDesign(
        name=f"{composition.name}_s{seed}",
        family=family,
        components=tuple(components),
        composition=composition,
        seed=seed,
        params=params,
    )


def design_space(
    seeds: Sequence[int],
    families: Sequence[str] = FAMILIES,
    depth: int = 2,
) -> Iterator[GeneratedDesign]:
    """The seeded design matrix: one :func:`sample_design` per seed."""
    for seed in seeds:
        yield sample_design(seed, families=families, depth=depth)
