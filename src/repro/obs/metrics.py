"""The metrics registry — counters, gauges, histograms, one namespace.

Every metric lives in one flat, Prometheus-shaped namespace
(``repro_<layer>_<what>[_total]``) with optional label sets, replacing the
ad-hoc per-object ``stats()`` dict shapes that accumulated across PRs 4–8.
Two acquisition paths feed a registry:

* **instruments** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  objects handed out by :meth:`MetricsRegistry.counter` & co., incremented
  at call sites (cheap: a dict lookup amortized to an attribute add);
* **collectors** — callables registered with
  :meth:`MetricsRegistry.register_collector` that scrape an existing
  ``stats()`` surface on demand (at :meth:`snapshot` time), which is how
  the legacy counters on the store, scheduler, artifact graph, and BDD
  managers surface without double bookkeeping.

Snapshots are plain JSON (``{"families": [...]}``); Prometheus text
exposition is rendered from the same snapshot by
:func:`repro.obs.export.to_prometheus`.

Determinism: histograms use the fixed log-scale :data:`LATENCY_BUCKETS`;
nothing in a snapshot reads a clock — every value is a recorded count/sum,
so tests can assert on snapshots directly (timing-valued *observations*
are of course caller-provided).
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: fixed half-decade log-scale latency buckets, in seconds (upper bounds).
#: 100 µs … 100 s covers everything from a warm cache hit to a cold
#: compile of a large composition; +Inf is implicit in the exposition.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.000316,
    0.001,
    0.00316,
    0.01,
    0.0316,
    0.1,
    0.316,
    1.0,
    3.16,
    10.0,
    31.6,
    100.0,
)

Labels = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Dict[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone count. ``inc`` only; negative increments are rejected."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value; settable up or down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A cumulative-bucket histogram over fixed upper bounds."""

    __slots__ = ("name", "labels", "buckets", "counts", "total", "sum")

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1
        self.total += 1
        self.sum += value

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.total))
        return out


class MetricsRegistry:
    """Instruments plus collectors, snapshotted into metric families.

    A *family* is one metric name with a type, optional help text, and one
    sample per label set — the unit both the JSON and Prometheus exports
    are built from.  Get-or-create semantics: asking twice for the same
    ``(name, labels)`` returns the same instrument; asking for the same
    name with a different type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Labels], object] = {}
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._collectors: List[Callable[[], Iterable[Dict[str, object]]]] = []

    # -- instrument acquisition ---------------------------------------------------
    def _get(self, kind: str, cls, name: str, labels, help, **kwargs):
        key = (name, _labels_key(labels))
        with self._lock:
            existing_type = self._types.get(name)
            if existing_type is not None and existing_type != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing_type}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._instruments[key] = instrument
                self._types[name] = kind
            if help:
                self._help[name] = help
            return instrument

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None, help: str = ""
    ) -> Counter:
        return self._get("counter", Counter, name, labels, help)

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None, help: str = ""
    ) -> Gauge:
        return self._get("gauge", Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get("histogram", Histogram, name, labels, help, buckets=buckets)

    # -- collectors ---------------------------------------------------------------
    def register_collector(
        self, collector: Callable[[], Iterable[Dict[str, object]]]
    ) -> None:
        """``collector()`` yields family dicts (``name``/``type``/``help``/
        ``samples``) scraped on every snapshot — the adapter path for
        legacy ``stats()`` surfaces."""
        with self._lock:
            self._collectors.append(collector)

    # -- snapshot -----------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """``{"families": [...]}`` — instruments and collector output merged
        by family name, families and samples in sorted order."""
        families: Dict[str, Dict[str, object]] = {}

        def family(name: str, kind: str, help: str = "") -> Dict[str, object]:
            entry = families.get(name)
            if entry is None:
                entry = {"name": name, "type": kind, "help": help, "samples": []}
                families[name] = entry
            elif help and not entry["help"]:
                entry["help"] = help
            return entry

        with self._lock:
            instruments = list(self._instruments.values())
            types = dict(self._types)
            helps = dict(self._help)
            collectors = list(self._collectors)

        for instrument in instruments:
            name = instrument.name
            entry = family(name, types[name], helps.get(name, ""))
            labels = dict(instrument.labels)
            if isinstance(instrument, Histogram):
                entry["samples"].append(
                    {
                        "labels": labels,
                        "count": instrument.total,
                        "sum": round(instrument.sum, 9),
                        "buckets": [
                            [bound, count]
                            for bound, count in instrument.cumulative()
                        ],
                    }
                )
            else:
                entry["samples"].append({"labels": labels, "value": instrument.value})

        for collector in collectors:
            for emitted in collector():
                entry = family(
                    str(emitted["name"]),
                    str(emitted.get("type", "gauge")),
                    str(emitted.get("help", "")),
                )
                entry["samples"].extend(emitted.get("samples", ()))

        ordered = []
        for name in sorted(families):
            entry = families[name]
            entry["samples"].sort(key=lambda sample: sorted(sample["labels"].items()))
            ordered.append(entry)
        return {"families": ordered}

    def get_value(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[float]:
        """One sample's value out of a fresh snapshot (tests, formatters)."""
        wanted = dict(_labels_key(labels))
        for entry in self.snapshot()["families"]:
            if entry["name"] != name:
                continue
            for sample in entry["samples"]:
                if sample["labels"] == wanted:
                    return sample.get("value", sample.get("count"))
        return None


#: the process-wide registry: process-scoped instruments (trace/span counts,
#: client retries) and the default snapshot source for benchmark records.
#: Objects with their own lifecycle (a ``VerificationService``) own a
#: registry instance instead, so concurrent tests don't share counters.
GLOBAL = MetricsRegistry()


def reset_global() -> MetricsRegistry:
    """Replace the global registry's state (test hygiene)."""
    GLOBAL._instruments.clear()
    GLOBAL._types.clear()
    GLOBAL._help.clear()
    GLOBAL._collectors.clear()
    return GLOBAL
