"""Shared harness of the perf ledger: statistics, spans, guards, reports.

Everything here is workload-agnostic.  A workload (see ``verify_cold.py``,
``serve_socket.py``, ``deploy_fleet.py``) records one :class:`PassRecord`
per pass over its query set; :func:`run_workload` in ``run.py`` repeats
passes for the requested number of seconds and turns them into metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout the benchmark runs in (the directory holding ``perfbench``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus" / "corpus.json"
#: run outputs (traces, the determinism ledger, scratch stores); gitignored
OUT = Path(__file__).resolve().parent / "out"

class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (sources or corpus missing)."""


def require_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail without it."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", CORPUS)
        if not path.is_file()
    ]
    if missing:
        raise SetupError(
            "the benchmark needs the repository sources next to it; missing: "
            + ", ".join(missing)
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics -----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def per_op(passes: Sequence["PassRecord"]) -> Dict[str, float]:
    """Median latency (seconds) of every operation across the passes."""
    samples: Dict[str, List[float]] = {}
    for record in passes:
        for op, seconds in record.latencies.items():
            samples.setdefault(op, []).append(seconds)
    return {op: statistics.median(values) for op, values in samples.items()}


def reference_work() -> int:
    """A fixed pure-Python computation that stands for the machine's speed.

    It interns tuple keys in a table, memoizes over them and walks the
    result, the same kind of interpreter and allocator work as the
    program's hot loops, and touches a few MiB like they do.  It calls
    nothing of the program, so no change to the program moves it.
    """
    table: Dict[Tuple[int, int, int], int] = {}
    nodes: List[Tuple[int, int, int]] = []
    for index in range(REFERENCE_SIZE):
        key = (index % 31, (index * 7919) % 2003, (index * 104729) % 997)
        node = table.get(key)
        if node is None:
            node = table[key] = len(nodes)
            nodes.append(key)
    memo: Dict[Tuple[int, int], int] = {}
    total = 0
    for index in range(REFERENCE_SIZE):
        a, b = index % len(nodes), (index * 31) % len(nodes)
        pair = (a, b) if a < b else (b, a)
        value = memo.get(pair)
        if value is None:
            left, right = nodes[pair[0]], nodes[pair[1]]
            value = memo[pair] = (left[0] ^ right[1]) + (left[2] & right[0])
        total += value
    return total + len(sorted(memo.values()))


#: loop size of :func:`reference_work` (about 16 ms on the 2-vCPU VM)
REFERENCE_SIZE = 8000
#: the reference work's CPU time on a quiet host, the speed times are scaled to
REFERENCE_NOMINAL = 0.016
#: a pass times the reference work between two operations this often
REFERENCE_INTERVAL = 0.25


def reference_seconds(clock: Callable[[], float]) -> float:
    """Time of one run of :func:`reference_work` on ``clock``, without the
    cyclic collector, whose cost depends on the workload's heap, not the
    machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        reference_work()
        return clock() - started
    finally:
        if enabled:
            gc.enable()


def calibrated(passes: Sequence["PassRecord"]) -> List["PassRecord"]:
    """The passes with every time scaled to a host where the reference work
    takes ``REFERENCE_NOMINAL``, by the square root of the ratio: when the
    host slows down, the workloads slow down about half as much as the
    reference does (README.md, "Steadiness")."""
    scaled = []
    for record in passes:
        scale = math.sqrt(REFERENCE_NOMINAL / record.reference())
        scaled.append(
            PassRecord(
                seconds=record.seconds * scale,
                latencies={op: value * scale for op, value in record.latencies.items()},
                groups={phase: value * scale for phase, value in record.groups.items()},
                counts=record.counts,
                attempted=record.attempted,
                failed=record.failed,
                errors=record.errors,
            )
        )
    return scaled


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB of this process (or its largest child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- one pass ------------------------------------------------------------------------
@dataclass
class PassRecord:
    """What one pass over a workload's query set measured.

    ``latencies`` maps a stable operation id to its time in seconds on the
    workload's ``clock``; ``groups`` maps a phase to the time the pass
    spent in it; ``references`` holds reference-work times on the same
    clock; ``counts`` holds the layer counters read during the pass
    (determinism-guarded ones included).  ``seconds`` is wall time.
    """

    clock: Callable[[], float] = time.perf_counter
    seconds: float = 0.0
    latencies: Dict[str, float] = field(default_factory=dict)
    groups: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: reference-work times sampled between the pass's operations
    references: List[float] = field(default_factory=list)
    last_reference: float = 0.0

    def checkpoint(self) -> None:
        """Between two operations: time the reference work if it is due."""
        if time.perf_counter() - self.last_reference >= REFERENCE_INTERVAL:
            self.sample_reference()

    def sample_reference(self) -> None:
        self.references.append(reference_seconds(self.clock))
        self.last_reference = time.perf_counter()

    def reference(self) -> float:
        """The machine's speed during the pass, as a reference-work time."""
        return statistics.fmean(self.references)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def max_count(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


# -- spans ---------------------------------------------------------------------------
@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans around the benchmark's own calls into each layer.

    Disabled tracers hand out a shared no-op context, so the untraced run
    pays one attribute check per call site.  Spans are written out once, at
    the end (:meth:`write`), in the Chrome trace-event format.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()  # one parent stack per thread

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            record = Span(
                span_id=len(self.spans),
                parent=stack[-1] if stack else None,
                name=name,
                layer=layer,
                start=time.perf_counter(),
            )
            self.spans.append(record)
        stack.append(record.span_id)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.end - record.start
        totals: Dict[str, float] = {}
        for record in self.spans:
            own = (record.end - record.start) - covered[record.span_id]
            totals[record.layer] = totals.get(record.layer, 0.0) + own
        return totals

    def write(self, path: Path) -> Path:
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": record.name,
                "cat": record.layer,
                "ph": "X",
                "ts": round((record.start - origin) * 1e6, 3),
                "dur": round((record.end - record.start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": record.span_id, "parent": record.parent},
            }
            for record in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}) + "\n", encoding="utf-8")
        return path


# -- determinism guard -----------------------------------------------------------------
def code_digest() -> str:
    """SHA-256 over the program and benchmark sources: "the same code"."""
    digest = hashlib.sha256()
    for base in (SRC, Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    digest.update(CORPUS.read_bytes())
    return digest.hexdigest()


def check_guard(ledger_key: str, guarded: Dict[str, float]) -> List[str]:
    """Compare guarded counts with the last run of the same code; record them.

    Returns one line per mismatch.  The ledger lives in ``perfbench/out``
    and is keyed by :func:`code_digest`, so an edit to the program starts a
    fresh baseline instead of reporting a false mismatch.
    """
    ledger_path = OUT / "guard.json"
    try:
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    key = f"{ledger_key}|{code_digest()}"
    previous = ledger.get(key)
    mismatches = []
    if previous is not None:
        for name, value in guarded.items():
            if name in previous and previous[name] != value:
                mismatches.append(
                    f"{name}: {value} now, {previous[name]} in an earlier run"
                )
    ledger[key] = guarded
    OUT.mkdir(parents=True, exist_ok=True)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return mismatches


# -- reporting -------------------------------------------------------------------------
def fingerprint(seed: int) -> Dict[str, object]:
    from repro.bdd.backend import resolve_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is baked into the image
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "bdd_backend": resolve_backend(None),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
    }


def metric(value: float, unit: str, samples: Optional[int] = None) -> Dict[str, object]:
    entry: Dict[str, object] = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def print_named(title: str, named: Dict[str, Dict[str, object]]) -> None:
    """One human-readable line per metric, before the JSON result line."""
    print(f"# {title}")
    for name, entry in named.items():
        samples = entry.get("samples")
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}{suffix}")


def ms(seconds: float) -> float:
    return seconds * 1e3


def us(seconds: float) -> float:
    return seconds * 1e6
