#!/usr/bin/env python3
"""Quickstart: one Design session from source text to running code.

This walks through the paper's introductory example — the ``filter`` process
that emits an event every time its boolean input changes value — using the
:class:`repro.Design` facade, the single entry point for the paper's whole
pipeline:

1. build a design (from source text, a builder, or process objects) and
   inspect its clock hierarchy;
2. ``verify()`` its properties — every answer is a structured Verdict;
3. ``compile()`` it to a deployment and ``run()`` it on input flows.

Run with:  python examples/quickstart.py
"""

from repro import Design, SignalInterpreter
from repro.lang.printer import format_normalized_process

FILTER_SOURCE = """
process filter (y) returns (x) {
  local z;
  x := true when (y /= z);
  z := y pre true;
}
"""


def main() -> None:
    # -- 1. one session for the whole pipeline --------------------------------
    design = Design.from_source(FILTER_SOURCE)
    print("normalized process")
    print(format_normalized_process(design.composition))
    print()
    print("clock hierarchy (single root => endochronous):")
    print(design.analysis.hierarchy.describe())
    print()

    # -- 2. verification: every answer is a Verdict ----------------------------
    for prop in ("compilable", "hierarchic", "endochrony", "weak-endochrony"):
        verdict = design.verify(prop)
        print(f"  {prop:<16} holds={str(verdict.holds):<5} "
              f"[{verdict.method}, {verdict.cost}]")
    print()

    # the same analysis artefacts back the interpreter...
    interpreter = SignalInterpreter(design.composition)
    stream = [True, False, False, True, True, False]
    print(f"input flow  y: {stream}")
    emitted = []
    for value in stream:
        result = interpreter.step({"y": value})
        emitted.append("x" if result.present("x") else ".")
    print(f"output x emitted at instants: {' '.join(emitted)}  (paper: t2, t4, t6)")
    print()

    # -- 3. ...and code generation: compile() returns a Deployment -------------
    deployment = design.compile("sequential")
    print("generated Python (binding an IO stream returns the step closure):")
    print(deployment.compiled.python_source)
    flows = deployment.run({"y": stream})
    print(f"simulated output flow x = {flows['x']}")
    print()
    print("C-like listing (paper, Section 3.6 style):")
    print(deployment.listing())


if __name__ == "__main__":
    main()
