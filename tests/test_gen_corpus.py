"""The persisted corpus: build, round-trip, drift detection, warm-store seeding."""

import json
from pathlib import Path

import pytest

from repro.api.session import AnalysisContext, Design
from repro.gen.corpus import (
    Corpus,
    CorpusEntry,
    build_corpus,
    check_corpus,
    seed_store,
)
from repro.service.store import ArtifactStore

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_CORPUS = REPO_ROOT / "corpus" / "corpus.json"


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(range(6))


class TestBuildAndPersist:
    def test_entries_record_provenance_and_identity(self, small_corpus):
        for entry in small_corpus:
            assert entry.digest
            assert entry.family
            assert entry.components
            assert len(entry.verdicts) == 8  # 2 properties × 4 methods

    def test_save_load_roundtrip(self, small_corpus, tmp_path):
        path = small_corpus.save(tmp_path / "corpus.json")
        loaded = Corpus.load(path)
        # compare after JSON normalization: tuples in witness payloads
        # legitimately come back as lists
        assert json.loads(json.dumps(small_corpus.to_dict())) == loaded.to_dict()

    def test_newer_version_is_rejected(self):
        with pytest.raises(ValueError):
            Corpus.from_dict({"version": 999, "entries": []})

    def test_regenerate_rebuilds_the_same_design(self, small_corpus):
        entry = small_corpus.entries[0]
        design = Design.from_generated(entry.regenerate())
        assert design.digest() == entry.digest


class TestDriftDetection:
    def test_clean_corpus_has_no_drift(self, small_corpus):
        assert check_corpus(small_corpus) == []

    def test_verdict_tampering_is_detected(self, small_corpus):
        corpus = Corpus.from_dict(json.loads(json.dumps(small_corpus.to_dict())))
        entry = corpus.entries[0]
        key = next(iter(entry.verdicts))
        tampered = dict(entry.verdicts[key])
        tampered["holds"] = not tampered["holds"]
        entry.verdicts[key] = tampered  # type: ignore[index]
        drift = check_corpus(corpus)
        assert any(item.kind == "verdict" for item in drift)

    @staticmethod
    def _tampered(small_corpus, change):
        corpus = Corpus.from_dict(json.loads(json.dumps(small_corpus.to_dict())))
        payload = corpus.entries[0].verdicts["weak-endochrony|symbolic"]
        change(payload)
        return check_corpus(corpus)

    def test_renamed_diagnostic_is_payload_drift(self, small_corpus):
        def rename(payload):
            payload["diagnostics"][0]["name"] = "a name the engine no longer emits"

        drift = self._tampered(small_corpus, rename)
        assert [item.kind for item in drift] == ["payload"]
        assert "weak-endochrony via symbolic: diagnostics recorded" in drift[0].detail

    @pytest.mark.parametrize("field", ["states", "transitions", "state_bound", "components"])
    def test_changed_cost_is_payload_drift(self, small_corpus, field):
        def bump(payload):
            payload["cost"][field] += 1

        drift = self._tampered(small_corpus, bump)
        assert [item.kind for item in drift] == ["payload"]
        assert f"{field} recorded" in drift[0].detail

    def test_changed_method_is_payload_drift(self, small_corpus):
        def relabel(payload):
            payload["method"] = "explicit"

        assert [item.kind for item in self._tampered(small_corpus, relabel)] == ["payload"]

    @pytest.mark.parametrize("field", ["seconds", "bdd_nodes"])
    def test_run_dependent_costs_are_not_compared(self, small_corpus, field):
        def bump(payload):
            payload["cost"][field] += 1

        assert self._tampered(small_corpus, bump) == []

    def test_digest_drift_is_detected_and_stops_reverification(self, small_corpus):
        corpus = Corpus.from_dict(json.loads(json.dumps(small_corpus.to_dict())))
        payload = corpus.entries[0].to_dict()
        payload["digest"] = "0" * 64
        corpus.entries[0] = CorpusEntry.from_dict(payload)
        drift = check_corpus(corpus)
        digest_drift = [item for item in drift if item.kind == "digest"]
        assert len(digest_drift) == 1
        assert digest_drift[0].seed == corpus.entries[0].seed


class TestWarmStoreSeeding:
    def test_seed_store_answers_queries_without_recompute(self, small_corpus, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        written = seed_store(small_corpus, store)
        assert written == len(small_corpus) * 8

        context = AnalysisContext()
        context.artifact_cache = store
        entry = small_corpus.entries[0]
        design = Design.from_generated(entry.regenerate(), context=context)
        before = store.hits
        verdict = design.verify(
            "non-blocking", method="explicit", **small_corpus.options()
        )
        assert bool(verdict.holds) == entry.holds("non-blocking", "explicit")
        assert store.hits > before  # answered from the seeded store


class TestCommittedCorpus:
    """The acceptance criterion: the committed corpus re-verifies clean."""

    def test_committed_corpus_exists_with_enough_entries(self):
        corpus = Corpus.load(COMMITTED_CORPUS)
        assert len(corpus) >= 50

    def test_committed_corpus_reverifies_clean(self):
        corpus = Corpus.load(COMMITTED_CORPUS)
        drift = check_corpus(corpus)
        assert drift == [], [item.describe() for item in drift]
