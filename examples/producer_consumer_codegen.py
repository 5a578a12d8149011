#!/usr/bin/env python3
"""The producer / consumer case study of Section 5: three code generation schemes.

* the *current scheme* (Section 5.1): the composition is made endochronous by
  adding master-clock inputs that the environment must synchronize;
* the *contributed scheme* (Section 5.2): the components are compiled
  separately and a synthesized controller enforces the reported clock
  constraint ``[¬a] = [b]`` by rendez-vous, without touching the interface;
* the *concurrent scheme*: same controller decisions, but one thread per
  component and barriers at the rendez-vous.

All three are one ``design.compile(strategy)`` call on the same
:class:`repro.Design` session — the criterion, the per-component analyses
and the synthesized constraints are computed once and shared.  All three
produce the same flows on the same inputs: that is isochrony at work.

Run with:  python examples/producer_consumer_codegen.py
"""

from repro import Design
from repro.library.producer_consumer import normalized_suite


def main() -> None:
    suite = normalized_suite()
    design = Design(name="main", components=[suite["producer"], suite["consumer"]])

    # -- the compositional criterion, as a structured Verdict ------------------
    verdict = design.verify("weakly-hierarchic")
    print(verdict)
    print()

    # The monolithic (Section 5.1) scheme needs the environment to respect the
    # clock constraint [¬a] = [b] at every synchronized step, so the example
    # uses an input pattern where the two sides alternate in lockstep; the
    # controller scheme would also accept patterns where one side drifts ahead
    # (it suspends the early side until the rendez-vous).
    inputs = {
        "a": [True, False, True, True, False, True],
        "b": [False, True, False, False, True, False],
    }

    # -- Section 5.1: current scheme with master clocks -------------------------
    monolithic = design.compile("sequential", master_clocks=True)
    print(f"current scheme adds master clocks: {monolithic.master_clock_inputs}")
    feed_51 = {name: list(values) for name, values in inputs.items()}
    for master in monolithic.master_clock_inputs:
        feed_51[master] = [True] * len(inputs["a"])
    flows_51 = monolithic.run(feed_51)
    print(f"  u = {flows_51['u']}")
    print(f"  v = {flows_51['v']}")
    print()

    # -- Section 5.2: controller synthesis -----------------------------------------
    controlled = design.compile("controlled")
    print("synthesized rendez-vous constraints:")
    for constraint in controlled.constraints:
        print(f"  {constraint}")
    flows_52 = controlled.run(inputs)
    print(f"  u = {flows_52['u']}")
    print(f"  v = {flows_52['v']}")
    print()
    print("controlled main loop (C-like listing):")
    print(controlled.listing())
    print()

    # -- concurrent scheme ------------------------------------------------------------
    concurrent_flows = design.compile("concurrent").run(inputs)
    print("concurrent (threads + barriers) outputs:")
    print(f"  u = {concurrent_flows['u']}")
    print(f"  v = {concurrent_flows['v']}")
    print()

    same = (
        flows_51["u"] == flows_52["u"] == concurrent_flows["u"]
        and flows_51["v"] == flows_52["v"] == concurrent_flows["v"]
    )
    print(f"all three schemes produce the same flows: {same}")
    assert same, "the three code generation schemes disagree on the flows"


if __name__ == "__main__":
    main()
