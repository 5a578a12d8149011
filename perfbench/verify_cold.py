"""Workload ``verify_cold``: the engines and the BDD kernel, nothing else.

One process, one thread, closed loop.  Every query builds a fresh
``Design.from_source(printed source)`` with no artifact store and calls
``verify``, so each answer is computed from scratch:

* the committed corpus (60 designs) x {non-blocking, weak-endochrony} x
  {static, compiled, explicit, symbolic}; oracle: the corpus's recorded
  verdict for that property and method;
* symbolic non-blocking on buffers_4 and arbiter_3, the family the
  symbolic rebuild targets; oracle: the compiled engine's verdict,
  computed before timing starts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List

from common import PassRecord, Tracer, ms, per_op
from designs import (
    SourceDesign,
    corpus_designs,
    count_design,
    count_verdict,
    family_design,
    kernel_metrics,
    load_corpus,
    product_engine,
)

METHODS = ("static", "compiled", "explicit", "symbolic")
PROPS = ("non-blocking", "weak-endochrony")
#: buffers_5 (7-9 s, one operation) is left out: a pass must be short
#: enough for a run to repeat every query, see README.md "Steadiness"
FAMILIES = ("buffers_4", "arbiter_3")
SMOKE_FAMILIES = ("buffers_2", "arbiter_2")
#: exploration bound of the family queries and their compiled oracle — large
#: enough that the oracle's search is never truncated on these sizes
FAMILY_STATES = 4096


@dataclass(frozen=True)
class Query:
    qid: str
    design: SourceDesign
    prop: str
    method: str
    expected: bool  # the oracle's verdict
    max_states: int
    family: bool = False


class VerifyCold:
    name = "verify_cold"
    guarded = ("mc.states_expanded", "mc.symbolic.reachable_states", "bdd.apply_calls", "bdd.peak_nodes")
    #: one thread does all the work, so its CPU time is the work's cost
    #: without the time the shared host runs someone else on this vCPU
    clock = staticmethod(time.process_time)

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.queries: List[Query] = []

    def setup(self) -> None:
        """Load the corpus and print every design's source (the inputs)."""
        corpus = load_corpus()
        self.max_states = corpus.max_states
        self.designs = corpus_designs(corpus, limit=4 if self.smoke else None)
        self.families = [family_design(name) for name in (SMOKE_FAMILIES if self.smoke else FAMILIES)]

    def prepare(self) -> None:
        """Oracles outside the timed region; the query order comes from the seed."""
        from repro import Design

        queries = []
        for entry, design in self.designs:
            built = Design.from_source(design.source, name=design.name)
            if built.digest() != design.digest:
                raise RuntimeError(f"{design.name}: printed source changed the digest")
            for prop in PROPS:
                for method in METHODS:
                    queries.append(
                        Query(
                            f"{design.name}|{prop}|{method}",
                            design,
                            prop,
                            method,
                            entry.holds(prop, method),
                            self.max_states,
                        )
                    )
        for design in self.families:
            oracle = Design.from_source(design.source, name=design.name).verify(
                "non-blocking", "compiled", max_states=FAMILY_STATES
            )
            queries.append(
                Query(
                    f"{design.name}|non-blocking|symbolic",
                    design,
                    "non-blocking",
                    "symbolic",
                    bool(oracle.holds),
                    FAMILY_STATES,
                    family=True,
                )
            )
        random.Random(self.seed).shuffle(queries)
        self.queries = queries

    # -- one pass -------------------------------------------------------------------
    def run_pass(self, tracer: Tracer) -> PassRecord:
        from repro import Design

        record = PassRecord(clock=self.clock)
        started = time.perf_counter()
        for query in self.queries:
            record.checkpoint()
            record.attempted += 1
            begin = self.clock()
            try:
                if tracer.enabled:
                    holds = self._traced_query(query, tracer, record)
                else:
                    design = Design.from_source(query.design.source, name=query.design.name)
                    holds = design.verify(query.prop, query.method, max_states=query.max_states).holds
            except Exception as error:  # noqa: BLE001 - a typed error is a failed query
                record.fail(f"{query.qid}: {type(error).__name__}: {error}")
                continue
            record.latencies[query.qid] = self.clock() - begin
            if bool(holds) != query.expected:
                record.fail(f"{query.qid}: holds={holds}, oracle says {query.expected}")
        record.seconds = time.perf_counter() - started
        return record

    def _traced_query(self, query: Query, tracer: Tracer, record: PassRecord) -> bool:
        """The same query, split at the public entry point of each layer."""
        from repro import Design

        with tracer.span(f"api.query.{query.method}", "api"):
            with tracer.span("lang.from_source", "lang"):
                design = Design.from_source(query.design.source, name=query.design.name)
            with tracer.span("lang.digest", "lang"):
                design.digest()
            if query.family:
                holds = self._symbolic_phases(design, query, tracer, record)
            else:
                if query.method in ("static", "explicit"):
                    with tracer.span("clocks.analysis", "clocks"):
                        design.component_analyses()
                        design.analysis
                if query.method == "static":
                    with tracer.span("properties.criterion", "properties"):
                        design.criterion()
                if query.method == "compiled":
                    with tracer.span("mc.compile", "mc"):
                        product_engine(design, query.max_states)
                verify_span = {
                    "static": ("api.static.verify", "api"),
                    "compiled": ("mc.compiled.verify", "mc"),
                    "explicit": ("mc.explicit.verify", "mc"),
                    "symbolic": ("mc.symbolic.verify", "mc"),
                }[query.method]
                with tracer.span(*verify_span):
                    verdict = design.verify(query.prop, query.method, max_states=query.max_states)
                count_verdict(verdict, record)
                holds = verdict.holds
        count_design(design, record)
        return bool(holds)

    def _symbolic_phases(self, design, query: Query, tracer: Tracer, record: PassRecord) -> bool:
        """Section 4.1's symbolic non-blocking check, one public call per phase."""
        from repro.mc.symbolic import SymbolicProductChecker

        context = design.context
        with tracer.span("mc.compile", "mc"):
            engine = product_engine(design, query.max_states)
        components = engine.lazy.abstracted
        with tracer.span("mc.symbolic.lts", "mc"):
            ltss = [context.lts(component, query.max_states) for component in components]
        with tracer.span("mc.symbolic.encode", "mc"):
            checker = SymbolicProductChecker(ltss, manager=context.manager, components=components)
        with tracer.span("mc.symbolic.reach", "mc"):
            checker.reachable_states()
        with tracer.span("mc.symbolic.deadlock", "mc"):
            result = checker.is_non_blocking()
        record.add_count("mc.symbolic.reachable_states", checker.reachable_count())
        return bool(result.holds)

    # -- metrics --------------------------------------------------------------------
    def named(self, passes: List[PassRecord]) -> Dict[str, Dict[str, object]]:
        per_query = per_op(passes)
        named = {}
        for method in METHODS:
            total = sum(v for qid, v in per_query.items() if qid.endswith("|" + method))
            named[f"{method}_s"] = {"value": total, "unit": "s", "samples": len(passes)}
        return named

    def pass_seconds(self, passes: List[PassRecord]) -> float:
        """Every query of a pass, each at its median time."""
        return sum(per_op(passes).values())

    def layers(self, passes: List[PassRecord], tracer: Tracer) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for name in (
            "lang.from_source",
            "lang.digest",
            "clocks.analysis",
            "properties.criterion",
            "mc.compile",
            "mc.compiled.verify",
            "mc.explicit.verify",
            "mc.symbolic.lts",
            "mc.symbolic.encode",
            "mc.symbolic.reach",
            "mc.symbolic.deadlock",
        ):
            values[f"{name}_ms"] = ms(sum(tracer.durations(name)) / len(passes))
        counts = passes[-1].counts
        for name in ("mc.states_expanded", "mc.transitions", "mc.symbolic.reachable_states"):
            values[name] = counts.get(name, 0)
        values.update(kernel_metrics(counts))
        values.update({k: v for k, v in counts.items() if k.startswith("api.artifacts.")})
        return values

    def close(self) -> None:
        pass
