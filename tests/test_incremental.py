"""Incremental re-verification over the artifact graph.

The acceptance-critical behaviors pinned here:

* editing one component of a 4-component design and re-running ``verify``
  recomputes artifacts **only** for the changed component and the
  composition-level obligations — pinned on the per-stage computation
  counters of the artifact graph;
* a fresh session over a warm store answers the criterion without building
  a single :class:`ProcessAnalysis`;
* the invalidation-correctness oracle (hypothesis): for a random design
  edit, artifacts of untouched components are reused byte-identically and
  the verdicts equal a from-scratch run.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import Design
from repro.lang.builder import ProcessBuilder, signal
from repro.lang.normalize import NormalizedProcess, normalize
from repro.service.store import ArtifactStore

#: structurally distinct, interface-identical bodies for stage ``i``:
#: every flavor maps input ``s{i}`` to output ``s{i+1}`` and is endochronous
FLAVORS = ("copy", "negate", "guarded", "delayed")


def _stage(index: int, flavor: str) -> NormalizedProcess:
    source, target = f"s{index}", f"s{index + 1}"
    builder = ProcessBuilder(f"stage{index}", inputs=[source], outputs=[target])
    if flavor == "copy":
        builder.define(target, signal(source))
    elif flavor == "negate":
        builder.define(target, signal(source).not_())
    elif flavor == "guarded":
        builder.define(target, signal(source).and_(signal(source).not_()).or_(signal(source)))
    elif flavor == "delayed":
        builder.define(target, signal(source).pre(True).and_(signal(source)))
    else:  # pragma: no cover - guarded by FLAVORS
        raise ValueError(flavor)
    return normalize(builder.build())


def _chain_design(flavors, store=None) -> Design:
    design = Design(
        name="chain",
        components=[_stage(index, flavor) for index, flavor in enumerate(flavors)],
    )
    if store is not None:
        design.context.artifact_cache = store
    return design


def _stage_deltas(design, before):
    after = design.context.graph.counters
    return {
        stage: {
            field: counters[field] - before.get(stage, {}).get(field, 0)
            for field in counters
        }
        for stage, counters in after.items()
    }


def _snapshot(design):
    return {stage: dict(counters) for stage, counters in design.context.graph.counters.items()}


def test_editing_one_component_recomputes_only_its_artifacts(tmp_path):
    """The acceptance pin: O(changed component), not O(design)."""
    store = ArtifactStore(tmp_path / "store")
    design = _chain_design(["copy", "copy", "copy", "copy"], store)
    assert design.verify("weakly-hierarchic").holds
    cold = design.stats()["stages"]
    assert cold["diagnosis"]["computed"] == 4
    assert cold["analysis"]["computed"] == 5  # 4 components + the composition
    assert cold["obligations"]["computed"] == 1

    before = _snapshot(design)
    design.replace_component(2, _stage(2, "negate"))
    assert design.verify("weakly-hierarchic").holds
    delta = _stage_deltas(design, before)

    # exactly one component diagnosis recomputed; the other three hit memory
    assert delta["diagnosis"]["computed"] == 1
    assert delta["diagnosis"]["hits"] == 3
    # analyses: the edited component and the new composition, nothing else
    assert delta["analysis"]["computed"] == 2
    # the composition-level obligations and the design verdict move keys
    assert delta["obligations"]["computed"] == 1
    assert delta["verdict"]["computed"] == 1
    # dependency-tracked invalidation dropped the stale nodes, counted
    assert delta["diagnosis"]["invalidated"] == 1
    assert delta["verdict"]["invalidated"] == 1


def test_warm_store_serves_the_criterion_without_any_analysis(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cold = _chain_design(["copy", "negate", "copy", "delayed"], store)
    verdict = cold.verify("weakly-hierarchic")
    assert verdict.holds

    warm = _chain_design(["copy", "negate", "copy", "delayed"], ArtifactStore(tmp_path / "store"))
    warm_verdict = warm.verify("weakly-hierarchic")
    assert warm_verdict.holds == verdict.holds
    stages = warm.stats()["stages"]
    # one verdict object read from disk; no pipeline stage ran at all
    assert stages["verdict"]["store_hits"] == 1
    assert "analysis" not in stages and "diagnosis" not in stages

    # criterion() assembles the CompositionVerdict from persisted artifacts
    report = warm.criterion()
    assert report.weakly_hierarchic()
    assert warm.stats()["stages"]["diagnosis"]["store_hits"] == 4
    assert warm.stats()["stages"]["obligations"]["store_hits"] == 1
    assert "analysis" not in warm.stats()["stages"]
    # the controller reads the persisted constraint report: compiling the
    # components analyses each of them, and the composition never
    warm.compile("controlled")
    assert warm.stats()["stages"]["analysis"]["computed"] == 4


def test_an_obligations_object_without_clock_pairs_is_recomputed(tmp_path):
    """An obligations object that stores the constraints only as strings
    (the earlier format) is a store miss: counted invalid and recomputed."""
    flavors = ["copy", "negate", "copy", "delayed"]
    store = ArtifactStore(tmp_path / "store")
    cold_constraints = _chain_design(flavors, store).criterion().reported_constraints
    assert cold_constraints
    objects = sorted((tmp_path / "store" / "objects").glob("*/*/obligations-*.json"))
    assert len(objects) == 1
    digest, kind = objects[0].parent.name, objects[0].stem
    payload = dict(store.get(digest, kind))
    del payload["constraints"]
    payload["reported_constraints"] = list(cold_constraints)
    store.put(digest, kind, payload)

    warm = _chain_design(flavors, ArtifactStore(tmp_path / "store"))
    report = warm.criterion()
    obligations = warm.stats()["stages"]["obligations"]
    assert obligations["invalid"] == 1
    assert obligations["computed"] == 1
    assert obligations["store_hits"] == 0
    assert report.reported_constraints == cold_constraints


def test_edited_warm_session_recomputes_only_the_edit(tmp_path):
    """Fresh session + warm store + one edited component: untouched
    components come back from disk, the edit and the composition recompute."""
    store_root = tmp_path / "store"
    cold = _chain_design(["copy", "copy", "copy", "copy"], ArtifactStore(store_root))
    assert cold.verify("weakly-hierarchic").holds

    edited = _chain_design(["copy", "negate", "copy", "copy"], ArtifactStore(store_root))
    assert edited.verify("weakly-hierarchic").holds
    stages = edited.stats()["stages"]
    assert stages["diagnosis"]["store_hits"] == 3
    assert stages["diagnosis"]["computed"] == 1
    assert stages["analysis"]["computed"] == 2  # edited component + composition
    assert stages["obligations"]["computed"] == 1


def test_replacing_with_an_identical_component_invalidates_nothing(tmp_path):
    design = _chain_design(["copy", "copy", "copy", "copy"])
    assert design.verify("weakly-hierarchic").holds
    before = _snapshot(design)
    design.replace_component(1, _stage(1, "copy"))  # same content, new object
    assert design.verify("weakly-hierarchic").holds
    delta = _stage_deltas(design, before)
    assert delta["diagnosis"].get("invalidated", 0) == 0
    # same content -> same design digest -> the verdict node itself hits;
    # no downstream stage is even consulted
    assert delta["verdict"]["hits"] == 1 and delta["verdict"]["computed"] == 0
    assert delta["diagnosis"]["computed"] == 0
    assert delta["analysis"]["computed"] == 0


def test_remove_component_drops_only_its_artifacts():
    design = _chain_design(["copy", "negate", "copy"])
    assert design.verify("weakly-hierarchic").holds
    before = _snapshot(design)
    design.remove_component(2)
    delta = _stage_deltas(design, before)
    assert delta["diagnosis"]["invalidated"] == 1
    assert delta["analysis"]["invalidated"] == 1
    assert len(design.components) == 2
    assert design.verify("weakly-hierarchic").holds
    assert _stage_deltas(design, before)["diagnosis"]["hits"] == 2


def test_custom_composition_gets_its_own_artifact_keys(tmp_path):
    """A design built with an explicit ``composition=`` that differs from the
    plain compose must not adopt the default composition's verdicts — from
    the store or from a shared context's memory tier."""
    components = [_stage(0, "copy"), _stage(2, "copy")]  # independent stages
    cyclic = ProcessBuilder("cyc", inputs=[], outputs=["u", "v"])
    cyclic.define("u", signal("v"))
    cyclic.define("v", signal("u"))  # instantaneous cycle: not acyclic
    custom = normalize(cyclic.build())

    plain = _chain_design_components(components, ArtifactStore(tmp_path / "store"))
    assert plain.verify("weakly-hierarchic").holds

    warped = Design(name="chain", components=list(components), composition=custom)
    warped.context.artifact_cache = ArtifactStore(tmp_path / "store")
    assert plain.digest() != warped.digest()
    assert not warped.verify("weakly-hierarchic").holds

    # same conflation guarded on the memory tier of one shared context
    from repro.api.session import AnalysisContext

    context = AnalysisContext()
    assert Design(name="chain", components=list(components), context=context).verify(
        "weakly-hierarchic"
    ).holds
    shared = Design(
        name="chain", components=list(components), composition=custom, context=context
    )
    assert not shared.verify("weakly-hierarchic").holds


def _chain_design_components(components, store=None) -> Design:
    design = Design(name="chain", components=list(components))
    if store is not None:
        design.context.artifact_cache = store
    return design


def test_shared_context_edit_keeps_the_other_designs_artifacts():
    """Invalidation is reference-counted: a design replacing a component must
    not drop artifacts another design on the same context still addresses."""
    from repro.api.session import AnalysisContext

    context = AnalysisContext()
    first = Design(
        name="one", components=[_stage(0, "copy"), _stage(1, "negate")], context=context
    )
    second = Design(name="two", components=[_stage(0, "copy")], context=context)
    assert first.verify("weakly-hierarchic").holds
    assert second.verify("weakly-hierarchic").holds

    before = dict(context.graph.counters["diagnosis"])
    first.replace_component(0, _stage(0, "delayed"))
    assert first.verify("weakly-hierarchic").holds
    assert second.verify("weakly-hierarchic").holds
    delta = {
        field: context.graph.counters["diagnosis"][field] - before[field]
        for field in before
    }
    # only the replacement stage was diagnosed; stage0's artifacts survived
    # for `second`, so nothing of its was invalidated or recomputed
    assert delta["computed"] == 1
    assert delta["invalidated"] == 0


def test_repeated_edits_do_not_accumulate_stale_memory_nodes():
    """Edits supersede the old design/composition digests: a long-lived
    session editing in place keeps a bounded memory tier instead of piling
    up one stale composed analysis and obligations node per edit."""
    design = _chain_design(["copy", "copy", "copy", "copy"])
    design.verify("weakly-hierarchic")
    design.criterion()
    graph = design.context.graph
    base_analysis = len(graph.nodes("analysis"))
    base_obligations = len(graph.nodes("obligations"))
    for flavor in ("negate", "delayed", "guarded", "negate", "copy", "delayed"):
        design.replace_component(2, _stage(2, flavor))
        assert design.verify("weakly-hierarchic").holds
        design.criterion()
    assert len(graph.nodes("analysis")) <= base_analysis + 1
    assert len(graph.nodes("obligations")) <= base_obligations + 1


def test_component_design_does_not_disable_invalidation():
    """Cached sub-designs release their digest references when the parent
    discards them, so a later replace still invalidates the old component."""
    design = _chain_design(["copy", "copy", "copy"])
    assert design.verify("weakly-hierarchic").holds
    design.component_design(1).verify("non-blocking", method="compiled")
    before = design.context.graph.counters["diagnosis"]["invalidated"]
    design.replace_component(1, _stage(1, "negate"))
    assert design.verify("weakly-hierarchic").holds
    assert design.context.graph.counters["diagnosis"]["invalidated"] - before == 1


def test_service_artifact_stats_count_shared_contexts_once():
    """Two designs registered over one shared context report one graph."""
    import asyncio

    from repro.api.session import AnalysisContext
    from repro.service import VerificationService

    context = AnalysisContext()
    first = Design(name="one", components=[_stage(0, "copy")], context=context)
    second = Design(name="two", components=[_stage(1, "copy")], context=context)
    service = VerificationService()
    digest = service.register(first)
    service.register(second)
    asyncio.run(service.verify(digest, "non-blocking", method="compiled"))
    artifacts = service.stats()["artifacts"]
    assert artifacts["sessions"] == 2 and artifacts["contexts"] == 1
    # a compiled query resolves no analysis: the compiled relation is
    # declared in the structural variable order and needs no clock hierarchy
    assert "analysis" not in context.graph.counters
    assert (
        artifacts["stages"]["compiled"]["computed"]
        == context.graph.counters["compiled"]["computed"]
        == 1
    )
    service.close()


def _store_bytes(store: ArtifactStore, digests):
    """Every stored object of the given digests, as raw bytes."""
    contents = {}
    for digest in digests:
        directory = store.root / "objects" / digest[:2] / digest
        if directory.is_dir():
            for path in sorted(directory.glob("*.json")):
                contents[(digest, path.name)] = path.read_bytes()
    return contents


@given(
    flavors=st.lists(st.sampled_from(FLAVORS), min_size=4, max_size=5),
    edit=st.data(),
)
@settings(max_examples=10, deadline=None)
def test_random_edit_reuses_untouched_artifacts_byte_identically(flavors, edit):
    """The invalidation-correctness oracle.

    For a random design and a random one-component edit: (1) the persisted
    artifacts of every untouched component are byte-identical before and
    after the edited re-verification, and (2) the edited design's verdict
    equals a from-scratch run with no store and no shared memo.
    """
    index = edit.draw(st.integers(min_value=0, max_value=len(flavors) - 1))
    replacement = edit.draw(st.sampled_from(FLAVORS))
    store_root = tempfile.mkdtemp(prefix="repro-incremental-")
    try:
        store = ArtifactStore(store_root)
        design = _chain_design(flavors, store)
        design.verify("weakly-hierarchic")
        design.verify("non-blocking", method="compiled")

        untouched = [
            design.context.digest_of(component)
            for position, component in enumerate(design.components)
            if position != index
        ]
        before_bytes = _store_bytes(store, untouched)
        assert before_bytes, "cold run must have persisted per-component artifacts"

        design.replace_component(index, _stage(index, replacement))
        edited_criterion = design.verify("weakly-hierarchic")
        edited_nonblocking = design.verify("non-blocking", method="compiled")

        # (1) untouched components' artifacts were reused byte-identically,
        # never rewritten.  (New objects may legitimately appear under an
        # untouched digest: editing a neighbor can change the composition's
        # unified types, so a component is abstracted — and compiled — under
        # a different retyping than before.  Existing bytes never change.)
        after_bytes = _store_bytes(store, untouched)
        for key, content in before_bytes.items():
            assert after_bytes[key] == content, f"artifact {key} was rewritten"

        # (2) a from-scratch session (fresh context, fresh empty store)
        # reaches the same verdicts
        edited_flavors = list(flavors)
        edited_flavors[index] = replacement
        scratch = _chain_design(edited_flavors)
        for edited, prop, method in (
            (edited_criterion, "weakly-hierarchic", "auto"),
            (edited_nonblocking, "non-blocking", "compiled"),
        ):
            fresh = scratch.verify(prop, method)
            assert edited.holds == fresh.holds
            assert [(d.name, d.holds) for d in edited.diagnostics] == [
                (d.name, d.holds) for d in fresh.diagnostics
            ]
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


def test_verify_many_parallel_threads_the_store_to_workers(tmp_path):
    """Workers re-open the parent's store and persist what they compute."""
    import os

    if (os.cpu_count() or 1) < 2:
        pytest.skip("process pool needs more than one core")
    store = ArtifactStore(tmp_path / "store")
    specs = [("non-blocking", "compiled"), ("weak-endochrony", "compiled")]
    design = _chain_design(["copy", "negate", "copy"], store)
    verdicts = design.verify_many(specs, parallel=2)
    assert all(v.holds for v in verdicts)
    # verdicts are content-addressed by design digest: the workers' writes
    # are now warm starts for any later session
    warm = _chain_design(["copy", "negate", "copy"], ArtifactStore(tmp_path / "store"))
    warm_verdicts = warm.verify_many(specs)
    assert [v.holds for v in warm_verdicts] == [v.holds for v in verdicts]
    assert warm.stats()["stages"]["verdict"]["store_hits"] == 2
