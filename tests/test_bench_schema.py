"""Every recorded ``BENCH_*.json`` conforms to the recorder's schema.

The benchmark records are cross-run artifacts: tooling (and people) diff
them, so their shape is a contract — ``bench`` / ``python`` / ``entries``
with a ``scenario`` per entry, numeric canonical fields, and (since PR 9)
a ``metrics`` key holding a ``repro.obs`` registry snapshot whose families
render to parseable Prometheus text.  This suite validates each record in
the repo root, so a bench module that drifts from
``benchmarks/_record.py`` fails here rather than silently producing an
uncomparable record.  Records are generated (gitignored), so a clean
checkout skips; the ``obs`` CI job runs ``benchmarks/bench_obs.py`` first
precisely so this suite always has a fresh record to validate there.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import export as obs_export

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_there_are_bench_records_to_validate():
    if not BENCH_FILES:
        pytest.skip(
            "no BENCH_*.json present (records are generated by benchmark "
            "runs; the obs CI job produces one before running this suite)"
        )


@pytest.mark.parametrize(
    "path", BENCH_FILES, ids=[path.name for path in BENCH_FILES]
)
def test_bench_record_schema(path):
    payload = json.loads(path.read_text(encoding="utf-8"))

    assert set(payload) >= {"bench", "python", "entries", "metrics"}
    assert path.name == f"BENCH_{payload['bench']}.json", "name matches content"
    assert isinstance(payload["python"], str) and payload["python"]

    entries = payload["entries"]
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert isinstance(entry["scenario"], str) and entry["scenario"]
        for field in ("seconds", "states", "bdd_nodes"):
            if field in entry:
                assert isinstance(entry[field], (int, float))
                assert entry[field] >= 0

    metrics = payload["metrics"]
    assert isinstance(metrics["families"], list)
    _check_deploy_record(payload)
    _check_symbolic_record(payload)
    for family in metrics["families"]:
        assert set(family) >= {"name", "type", "samples"}
        assert family["type"] in ("counter", "gauge", "histogram")
        for sample in family["samples"]:
            assert isinstance(sample["labels"], dict)
            assert "value" in sample or "count" in sample
    # a non-empty snapshot must render to parseable Prometheus text
    if metrics["families"]:
        parsed = obs_export.parse_prometheus(obs_export.to_prometheus(metrics))
        assert set(parsed) == {family["name"] for family in metrics["families"]}


def _check_deploy_record(payload):
    """The deploy bench (PR 10) additionally records its throughput gates."""
    if payload["bench"] != "deploy":
        return
    entries = payload["entries"]
    gates = [entry for entry in entries if entry["scenario"].startswith("gate ")]
    assert gates, "the deploy bench records its throughput gates"
    for gate in gates:
        assert isinstance(gate["speedup"], (int, float))
        assert isinstance(gate["threshold"], (int, float))
    rates = [entry for entry in entries if "reactions_per_second" in entry]
    assert rates, "the deploy bench records reactions/s per runtime tier"
    for entry in rates:
        assert entry["reactions_per_second"] > 0
    names = {family["name"] for family in payload["metrics"]["families"]}
    assert "repro_deploy_batch_lanes_total" in names


def _check_symbolic_record(payload):
    """The symbolic bench records each fixpoint beside its time."""
    if payload["bench"] != "symbolic":
        return
    for entry in payload["entries"]:
        assert isinstance(entry["holds"], bool)
        assert isinstance(entry["seconds"], (int, float))
        frontiers = entry["frontier_nodes"]
        assert entry["iterations"] == len(frontiers) >= 1
        assert all(isinstance(nodes, int) and nodes >= 0 for nodes in frontiers)
        assert entry["peak_nodes"] >= entry["bdd_nodes"] >= 0
        assert entry["and_exists_calls"] >= entry["iterations"]
        if "target_seconds" in entry:
            assert entry["target_seconds"] > 0
