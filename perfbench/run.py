#!/usr/bin/env python3
"""Perf ledger: seeded end-to-end workloads with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload

``--trace 0`` measures with tracing off and reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name every metric of the workload with its unit.  Traces, full
results and the determinism ledger land in ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = {
    "verify_cold": ("verify_cold", "VerifyCold"),
    "serve_socket": ("serve_socket", "ServeSocket"),
    "deploy_fleet": ("deploy_fleet", "DeployFleet"),
}
#: set-up is repeated this many times per run and reported as the median
SETUP_REPEATS = 5


def load_spec() -> dict:
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise common.SetupError("BENCHMARK.json is missing from the checkout root")
    return json.loads(path.read_text(encoding="utf-8"))


def make_workload(name: str, seed: int, smoke: bool):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed, smoke=smoke)


def measure_setup(name: str, repeats: int) -> list:
    """CPU seconds a fresh interpreter spends until the workload's inputs
    are ready (library import included), once per repeat.  Set-up runs on
    one thread, so its CPU time is its wall time less the time the shared
    host gives this vCPU to someone else."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    samples = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(command, env=environment, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return samples


def measure_passes(workload, seconds: float, traced: bool):
    """Whole passes while another one fits in ``seconds`` (at least one).

    With ``traced`` the passes alternate untraced / traced, starting
    untraced, and spans accumulate in the returned tracer.
    """
    tracer = common.Tracer(enabled=traced)
    untraced_tracer = common.Tracer(enabled=False)
    untraced, with_spans = [], []
    started = time.perf_counter()
    while True:
        take_traced = traced and len(with_spans) < len(untraced)
        record = workload.run_pass(tracer if take_traced else untraced_tracer)
        record.sample_reference()  # the pass's last stretch, after its last checkpoint
        (with_spans if take_traced else untraced).append(record)
        elapsed = time.perf_counter() - started
        estimate = elapsed / (len(untraced) + len(with_spans))
        if traced and not with_spans:
            continue
        if elapsed + estimate > seconds:
            return untraced, with_spans, tracer


def guard_lines(workload, traced_passes, ledger_key: str) -> list:
    """Determinism guard: guarded counts equal across passes and runs."""
    lines = []
    first = traced_passes[0].counts
    guarded = {name: first.get(name, 0) for name in workload.guarded}
    for index, record in enumerate(traced_passes[1:], start=2):
        for name, value in guarded.items():
            if record.counts.get(name, 0) != value:
                lines.append(f"{name}: pass {index} counted {record.counts.get(name, 0)}, pass 1 {value}")
    lines += common.check_guard(ledger_key, guarded)
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict):
    workload = make_workload(name, seed, smoke)
    try:
        # a workload that starts its own server reports those start times
        own_setup = getattr(workload, "setup_samples", None)
        setup_samples = None if own_setup is not None else measure_setup(name, 1 if smoke else SETUP_REPEATS)
        workload.setup()
        workload.prepare()
        untraced, traced_passes, tracer = measure_passes(workload, seconds, trace)
        setup_samples = own_setup or setup_samples
        passes = untraced + traced_passes
        attempted = sum(record.attempted for record in passes)
        failed = sum(record.failed for record in passes)
        named = workload.named(untraced)
        named["setup_s"] = common.metric(common.median(setup_samples), "s", len(setup_samples))
        named["peak_rss_mb"] = common.metric(workload_rss(workload), "MB")
        named["failed_share"] = common.metric(failed / attempted if attempted else 1.0, "ratio", attempted)
        # the gated pass time is CPU time scaled to a quiet host (README.md, "Steadiness")
        named["pass_cpu_s"] = common.metric(workload.pass_seconds(untraced), "s", len(untraced))
        named["reference_ms"] = common.metric(
            common.ms(common.median(r.reference() for r in untraced)), "ms", len(untraced)
        )
        named["pass_norm_s"] = common.metric(workload.pass_seconds(common.calibrated(untraced)), "s", len(untraced))

        gated = {name: named[name]["value"] for name in ("pass_norm_s", "setup_s", "peak_rss_mb")}
        report = {
            "workload": name,
            "fingerprint": common.fingerprint(seed),
            "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
            "named": named,
            "errors": [error for record in passes for error in record.errors][:20],
            "notes": getattr(workload, "notes", list)(),
        }
        guard = []
        if trace:
            layers = dict(workload.layers(traced_passes, tracer))
            overhead = common.median(r.seconds for r in traced_passes) / common.median(
                r.seconds for r in untraced
            )
            layers["obs.tracing_overhead_pct"] = (overhead - 1.0) * 100.0
            for layer, seconds_total in tracer.self_times().items():
                layers[f"layer.{layer}.self_ms"] = seconds_total * 1e3 / len(traced_passes)
            guard = guard_lines(workload, traced_passes, name + ("-smoke" if smoke else ""))
            report["guard"] = {"mismatches": guard}
            report["trace_file"] = str(
                tracer.write(common.OUT / f"trace-{name}-{seed}.json").relative_to(common.ROOT)
            )
            wanted = spec["per_layer"]
            values = layers
        else:
            wanted = spec["end_to_end"]
            values = gated
        metrics = {}
        for entry in wanted:
            # a layer this workload bypasses reports zero work
            value = values.get(entry["name"], 0)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        report["metrics"] = metrics
        common.OUT.mkdir(parents=True, exist_ok=True)
        (common.OUT / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        correct = failed == 0 and not guard
        return correct, attempted, failed, named, metrics, report
    finally:
        workload.close()


def workload_rss(workload) -> float:
    own = getattr(workload, "peak_rss_mb", None)
    return own() if callable(own) else common.peak_rss_mb()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes (for the smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing order reaches BDD variable orders; pin it so the
        # guarded counts are comparable across runs
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:], environment)

    try:
        common.require_sources()
        spec = load_spec()
    except common.SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    if arguments.setup_only:
        make_workload(arguments.workload, arguments.seed, arguments.smoke).setup()
        return 0

    names = sorted(WORKLOADS) if arguments.workload == "all" else [arguments.workload]
    all_correct, total_attempted, total_failed, combined = True, 0, 0, {}
    for name in names:
        correct, attempted, failed, named, metrics, report = run_workload(
            name, arguments.seed, arguments.seconds, bool(arguments.trace), arguments.smoke, spec
        )
        print(f"# fingerprint {json.dumps(report['fingerprint'], sort_keys=True)}")
        common.print_named(f"{name}: end-to-end metrics by name", named)
        if arguments.trace:
            common.print_named(f"{name}: per-layer metrics (traced run)", metrics)
        for line in report.get("guard", {}).get("mismatches", []):
            print(f"# determinism guard mismatch: {line}")
        for line in report["notes"]:
            print(f"# {line}")
        for line in report["errors"]:
            print(f"# failed: {line}")
        all_correct = all_correct and correct
        total_attempted += attempted
        total_failed += failed
        combined.update(metrics if len(names) == 1 else {f"{name}.{k}": v for k, v in named.items()})
    print(
        json.dumps(
            {
                "correct": all_correct,
                "attempted": total_attempted,
                "failed": total_failed,
                "metrics": combined,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
