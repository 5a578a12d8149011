#!/usr/bin/env python3
"""The loosely time-triggered architecture of Section 4.2, simulated end to end.

The LTTA is built from four endochronous devices — a writer, two one-place
buffers (the bus) and a reader — each paced by its own clock.  The example

1. checks each device and the composition with the compositional criterion
   (the LTTA is *not* endochronous: its hierarchy has four roots, one per
   device; but it *is* weakly hierarchic, hence isochronous);
2. simulates the architecture with independently drifting device clocks and
   shows that the reader recovers exactly the flow of values the writer
   produced — the alternating-bit protocol at work on top of isochrony.

Run with:  python examples/ltta_simulation.py
"""

import random

from repro import Design
from repro.library.ltta import ltta_components, normalized_suite
from repro.semantics.interpreter import ABSENT, SignalInterpreter


def analyse() -> None:
    components = ltta_components()
    design = Design(name="ltta", components=list(components.values()))
    print("per-device analysis:")
    for analysis in design.component_analyses():
        print(
            f"  {analysis.process.name:<12} compilable={analysis.is_compilable()}  "
            f"roots={analysis.root_count()}  hierarchic={analysis.is_hierarchic()}"
        )
    print()
    print(design.verify("weakly-hierarchic"))
    print()
    full = normalized_suite()["ltta"]
    roots = design.context.analysis(full).root_count()
    print(f"hierarchy roots of the whole LTTA: {roots} (one per device)")
    print()


def simulate(samples: int = 8, seed: int = 2008) -> None:
    """Drive the devices with drifting clocks that respect the LTTA rate condition.

    The LTTA tolerates clock drift as long as the bus and the reader are at
    least as fast as the writer (otherwise values are overwritten before being
    fetched — the paper inherits this condition from the original LTTA
    protocol).  The simulation below writes one value per "writer period",
    lets the two bus buffers shuttle it, and lets the reader sample the bus a
    random number of times (one to three) per period: the alternating flag
    guarantees each value is extracted exactly once despite the oversampling.
    """
    rng = random.Random(seed)
    components = ltta_components()
    writer = SignalInterpreter(components["writer"])
    stage1 = SignalInterpreter(components["bus_stage1"])
    stage2 = SignalInterpreter(components["bus_stage2"])
    reader = SignalInterpreter(components["reader"])

    produced = [100 + index for index in range(samples)]
    received = []

    for value in produced:
        # writer period: one fresh value with its alternating flag
        result = writer.step({"xw": value, "cw": True})
        writer_latch = (result.value("yw"), result.value("bw"))

        # the bus buffers fetch and forward (each one store instant + one load instant)
        stage1.step({"yw": writer_latch[0], "bw": writer_latch[1]})
        emitted = stage1.step({"yw": ABSENT, "bw": ABSENT}, assume={"bus_stage1_t": True})
        stage1_latch = (emitted.value("yb"), emitted.value("bb"))
        stage2.step({"yb": stage1_latch[0], "bb": stage1_latch[1]})
        emitted = stage2.step({"yb": ABSENT, "bb": ABSENT}, assume={"bus_stage2_t": True})
        bus_latch = (emitted.value("yr"), emitted.value("br"))

        # reader period(s): it may sample the same bus content several times,
        # but extracts the value only when the alternating flag changes
        for _ in range(rng.randint(1, 3)):
            result = reader.step({"yr": bus_latch[0], "br": bus_latch[1], "cr": True})
            if result.present("xr"):
                received.append(result.value("xr"))

    print(f"written  flow: {produced}")
    print(f"received flow: {received}")
    ok = received == produced
    print(f"the reader recovers the writer's flow, in order and without duplication: {ok}")
    assert ok, "the reader lost, duplicated or reordered a written value"


def main() -> None:
    analyse()
    simulate()


if __name__ == "__main__":
    main()
