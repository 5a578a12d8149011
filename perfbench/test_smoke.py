"""Smoke test of the perf ledger at minimal size.

Runs every workload with ``--smoke`` (a few corpus designs, short fleets)
untraced and traced, and checks the result contract: the last stdout line is
the JSON result, every metric of ``BENCHMARK.json`` appears with its unit,
every end-to-end metric the workload names appears with its unit, and
``failed_share`` is 0.  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: the end-to-end metrics each workload reports by name, with their units
NAMED = {
    "verify_cold": {"static_s": "s", "compiled_s": "s", "explicit_s": "s", "symbolic_s": "s"},
    "serve_socket": {
        "cold_p50_ms": "ms",
        "cold_p95_ms": "ms",
        "warm_p50_ms": "ms",
        "cached_p50_us": "us",
        "cached_p99_us": "us",
    },
    "deploy_fleet": {
        "compile_p50_ms": "ms",
        "scalar_reactions_per_s": "1/s",
        "fleet_deriv32_reactions_per_s": "1/s",
        "fleet_pipeline8_reactions_per_s": "1/s",
    },
}
COMMON = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
    "pass_cpu_s": "s",
    "reference_ms": "ms",
    "pass_norm_s": "s",
}


def run(workload: str, trace: int, seed: int = 7) -> dict:
    command = SPEC["command"][1:]
    completed = subprocess.run(
        [sys.executable, *command, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads((HERE / "out" / f"result-{workload}-{seed}-trace{trace}.json").read_text())
    return {"result": result, "report": report}


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    outcome = run(workload, trace)
    result, named = outcome["result"], outcome["report"]["named"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    expected = {**NAMED[workload], **COMMON}
    assert {name: entry["unit"] for name, entry in named.items()} == expected
    assert named["failed_share"]["value"] == 0


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    """A checkout holding only BENCHMARK.json and perfbench exits non-zero."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
