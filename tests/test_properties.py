"""Tests of the formal properties: endochrony, weak endochrony, non-blocking, isochrony."""

import pytest

from repro.lang.builder import ProcessBuilder, const, signal, tick, when_false, when_true
from repro.lang.normalize import normalize
from repro.mc.onthefly import LazyReactionLTS, OnTheFlyChecker
from repro.properties.compilable import ProcessAnalysis, verify_compilable, verify_hierarchic
from repro.properties.endochrony import check_endochrony_on_traces, verify_endochrony
from repro.properties.isochrony import check_isochrony
from repro.properties.nonblocking import verify_non_blocking
from repro.properties.weak_endochrony import (
    check_weak_endochrony,
    model_check_weak_endochrony,
)


class TestCompilability:
    def test_paper_examples_are_compilable(self, filter_normalized, buffer_normalized, producer_consumer):
        assert verify_compilable(filter_normalized).holds
        assert verify_compilable(buffer_normalized).holds
        assert verify_compilable(producer_consumer["producer"]).holds
        assert verify_compilable(producer_consumer["consumer"]).holds
        assert verify_compilable(producer_consumer["main"]).holds

    def test_instantaneous_cycle_is_not_compilable(self):
        builder = ProcessBuilder("loop", inputs=[], outputs=["x", "y"])
        builder.define("x", signal("y") + 0)
        builder.define("y", signal("x") + 0)
        assert not verify_compilable(normalize(builder.build())).holds

    def test_summary_keys(self, filter_analysis):
        summary = filter_analysis.summary()
        assert summary["compilable"] and summary["hierarchic"]
        assert summary["roots"] == 1


class TestEndochrony:
    def test_static_criterion_on_paper_processes(self, filter_merge, producer_consumer):
        assert verify_endochrony(filter_merge["filter"]).holds
        assert verify_endochrony(filter_merge["merge"]).holds
        assert verify_endochrony(producer_consumer["producer"]).holds
        assert verify_endochrony(producer_consumer["consumer"]).holds
        assert not verify_endochrony(filter_merge["composition"]).holds
        assert not verify_endochrony(producer_consumer["main"]).holds

    def test_hierarchic_predicate(self, buffer_normalized, filter_merge):
        assert verify_hierarchic(buffer_normalized).holds
        assert not verify_hierarchic(filter_merge["composition"]).holds

    def test_trace_check_detects_non_endochrony(self, filter_merge):
        """E2: the filter|merge composition relates d's timing to no single input.

        The input flows are chosen so that the silent occurrence of ``y`` (no
        value change, hence no ``x``) can be interleaved freely with the
        ``c``/``z`` events: flow-equivalent inputs then admit behaviors that
        are not clock equivalent, which is exactly the failure of Definition 1.
        """
        report = check_endochrony_on_traces(
            filter_merge["composition"],
            {"y": [True], "c": [False], "z": [5]},
            max_instants=4,
        )
        assert not report.holds
        assert report.counterexample is not None


class TestWeakEndochrony:
    def test_filter_merge_composition_is_weakly_endochronous(self, filter_merge):
        report = check_weak_endochrony(filter_merge["composition"])
        assert report.holds(), str(report)

    def test_main_is_weakly_endochronous(self, producer_consumer):
        report = check_weak_endochrony(producer_consumer["main"])
        assert report.holds(), str(report)

    def test_endochronous_process_is_weakly_endochronous(self, filter_normalized):
        """Definition 1 implies Definition 2 (endochrony implies weak endochrony)."""
        report = check_weak_endochrony(filter_normalized)
        assert report.holds(), str(report)

    def test_invariant_formulation_agrees(self, producer_consumer, filter_merge):
        """Section 4.1's model-checking formulation agrees with the direct check."""
        for process in (producer_consumer["main"], filter_merge["composition"]):
            direct = check_weak_endochrony(process)
            invariants = model_check_weak_endochrony(process)
            assert direct.holds() == invariants.holds()

    def test_non_weakly_endochronous_process_is_detected(self):
        """Two alternatives competing for the same output break the diamond property."""
        builder = ProcessBuilder("race", inputs=["a", "b"], outputs=["x"])
        builder.define("x", signal("a").default(signal("b")))
        process = normalize(builder.build())
        report = check_weak_endochrony(process)
        assert not report.holds()

    def test_report_rendering(self, producer_consumer):
        text = str(check_weak_endochrony(producer_consumer["main"]))
        assert "weakly endochronous" in text


class TestNonBlocking:
    def test_paper_compositions_are_non_blocking(self, filter_merge, producer_consumer):
        assert verify_non_blocking(filter_merge["composition"]).holds
        assert verify_non_blocking(producer_consumer["main"]).holds

    def test_buffer_is_non_blocking(self, buffer_normalized):
        assert verify_non_blocking(buffer_normalized).holds


def _in_order(left, right, consumer_first):
    return (right, left) if consumer_first else (left, right)


class TestIsochrony:
    @pytest.mark.parametrize("consumer_first", [False, True])
    def test_filter_and_merge_are_isochronous(self, filter_merge, consumer_first):
        """E3: the untimed composition of filter and merge preserves the flows."""
        report = check_isochrony(
            *_in_order(filter_merge["filter"], filter_merge["merge"], consumer_first),
            {"y": [True, False], "c": [True, False], "z": [False]},
            max_instants=5,
        )
        assert report.holds, str(report)
        assert report.asynchronous_classes >= 1

    @pytest.mark.parametrize("consumer_first", [False, True])
    def test_producer_and_consumer_are_isochronous(self, producer_consumer, consumer_first):
        report = check_isochrony(
            *_in_order(producer_consumer["producer"], producer_consumer["consumer"], consumer_first),
            {"a": [True, False], "b": [False, True]},
            max_instants=5,
        )
        assert report.holds, str(report)
        assert report.asynchronous_classes >= 1
        assert report.left_name == ("consumer" if consumer_first else "producer")

    @pytest.mark.parametrize("consumer_first", [False, True])
    @pytest.mark.parametrize("max_instants", [3, 4, 5])
    def test_split_and_join_are_not_isochronous(self, max_instants, consumer_first):
        """A join may reorder the two halves of a split when it runs alone.

        ``x = a when c`` and ``y = a when not c`` split ``a``; ``z = x default
        y`` joins them back.  Synchronously ``z`` replays ``a``; with FIFOs in
        between the join can read ``y``'s value before ``x``'s.  The consumer
        must be fed the shared flows of one producer behavior: flows mixed
        from different behaviors glue to nothing, and a comparison of no
        asynchronous class must not pass.
        """
        split = ProcessBuilder("split", inputs=["a", "c"], outputs=["x", "y"])
        split.define("x", signal("a").when(signal("c")))
        split.define("y", signal("a").when(signal("c").not_()))
        join = ProcessBuilder("join", inputs=["x", "y"], outputs=["z"])
        join.define("z", signal("x").default(signal("y")))
        report = check_isochrony(
            *_in_order(normalize(split.build()), normalize(join.build()), consumer_first),
            {"a": [1, 2, 3], "c": [True, False, True]},
            max_instants=max_instants,
        )
        assert not report.holds, str(report)
        assert report.asynchronous_classes >= 1
        assert len(report.missing_in_synchronous) == 1
        assert not report.complete

    def test_report_rendering(self, producer_consumer):
        report = check_isochrony(
            producer_consumer["producer"],
            producer_consumer["consumer"],
            {"a": [True], "b": [False]},
            max_instants=3,
        )
        assert "isochronous" in str(report)


class TestLTSConstruction:
    def test_buffer_lts_has_internal_activation(self, buffer_normalized):
        lts = OnTheFlyChecker(LazyReactionLTS(buffer_normalized)).materialize()
        assert lts.state_count() >= 2
        non_silent = [t for t in lts.transitions if not t.reaction.is_silent()]
        assert non_silent

    def test_lts_truncation_flag(self, producer_consumer):
        lts = OnTheFlyChecker(LazyReactionLTS(producer_consumer["main"]), 1).materialize()
        assert lts.state_count() <= 1 or lts.truncated
