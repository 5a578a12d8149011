"""E12 / E13 / E14 / E16 — the compositional schemes of Sections 4.2 and 5, regenerated and timed.

* the LTTA criterion (four endochronous devices, isochronous composition);
* the producer/consumer criterion with its reported constraint ``[¬a] = [b]``;
* sequential code generation for the three schemes (master clocks, controller,
  concurrent threads) and their execution on the paper's input pattern.

All scenarios go through the :class:`repro.Design` facade.  Criterion
benchmarks build a fresh session per round (measuring the real cost of the
static analysis); the execution benchmarks reuse one session, whose cached
analyses are exactly what the deployment schemes share in practice.
"""

from _record import recorder, timed

from repro import Design

RECORD = recorder("composition")

INPUTS = {"a": [True, False, True, False], "b": [False, True, False, True]}
EXPECTED_U = [1, 2]
EXPECTED_V = [1, 2, 3, 5]


def test_ltta_criterion(benchmark, paper_processes):
    """E12: the LTTA's four devices pass the weakly hierarchic criterion."""
    components = [
        paper_processes["ltta_writer"],
        paper_processes["ltta_bus_stage1"],
        paper_processes["ltta_bus_stage2"],
        paper_processes["ltta_reader"],
    ]

    def criterion():
        return Design(name="ltta", components=components).verify("weakly-hierarchic")

    verdict = benchmark(criterion)
    assert verdict.holds
    assert not verdict.report.endochronous_composition()
    _verdict, seconds = timed(criterion)
    RECORD.record("ltta criterion", seconds=seconds)


def test_producer_consumer_criterion(benchmark, paper_processes):
    """E13/E14: the criterion on producer|consumer reports the constraint [¬a] = [b]."""
    components = [paper_processes["pc_producer"], paper_processes["pc_consumer"]]

    def criterion():
        return Design(name="main", components=components).verify("weakly-hierarchic")

    verdict = benchmark(criterion)
    assert verdict.holds
    assert any("[¬a]" in c and "[b]" in c for c in verdict.report.reported_constraints)
    _verdict, seconds = timed(criterion)
    RECORD.record("producer/consumer criterion", seconds=seconds)


def test_sequential_code_generation(benchmark, paper_processes):
    """E9/E13: generating the step functions of the paper's processes."""

    def generate():
        return (
            Design.from_process(paper_processes["buffer"]).compile("sequential"),
            Design.from_process(paper_processes["pc_producer"]).compile("sequential"),
            Design.from_process(paper_processes["pc_consumer"]).compile("sequential"),
            Design.from_process(paper_processes["pc_main"]).compile(
                "sequential", master_clocks=True
            ),
        )

    deployments = benchmark(generate)
    assert all("_bind(io, state):" in deployment.compiled.python_source for deployment in deployments)
    assert all("_iterate() {" in deployment.listing() for deployment in deployments)


def test_master_clock_scheme_execution(benchmark, paper_processes):
    """E13: Section 5.1's scheme (master clocks C_a, C_b) on the paper's input pattern."""
    deployment = Design.from_process(paper_processes["pc_main"]).compile(
        "sequential", master_clocks=True
    )

    def run():
        return deployment.run(
            {
                "C_a": [True] * 4,
                "C_b": [True] * 4,
                "a": list(INPUTS["a"]),
                "b": list(INPUTS["b"]),
            }
        )

    flows = benchmark(run)
    assert flows["u"] == EXPECTED_U
    assert flows["v"] == EXPECTED_V


def test_controller_scheme_execution(benchmark, paper_processes):
    """E14: Section 5.2's synthesized controller on the same input pattern."""
    design = Design(
        name="main",
        components=[paper_processes["pc_producer"], paper_processes["pc_consumer"]],
    )
    deployment = design.compile("controlled")

    def run():
        return deployment.run({name: list(values) for name, values in INPUTS.items()})

    flows = benchmark(run)
    assert flows["u"] == EXPECTED_U
    assert flows["v"] == EXPECTED_V


def test_concurrent_scheme_execution(benchmark, paper_processes):
    """E16: the thread + barrier variant produces the same flows."""
    design = Design(
        name="main",
        components=[paper_processes["pc_producer"], paper_processes["pc_consumer"]],
    )
    deployment = design.compile("concurrent")

    def run():
        return deployment.run(INPUTS)

    flows = benchmark(run)
    assert flows["u"] == EXPECTED_U
    assert flows["v"] == EXPECTED_V
