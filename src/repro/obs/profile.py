"""Profiling hooks: the slow-query log and per-span kernel tagging."""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional


class SlowQueryLog:
    """A bounded log of queries slower than a configurable threshold.

    The scheduler reports every computed query here; entries record what
    is needed to explain the latency after the fact — the query key, the
    elapsed seconds, whether the trace was sampled (and its id, so the
    span tree can be pulled), and the per-stage breakdown when one was
    collected.  ``threshold <= 0`` disables logging entirely.
    """

    def __init__(self, threshold: float = 0.0, maxlen: int = 256):
        self.threshold = threshold
        self.observed = 0
        self.logged = 0
        self._entries: Deque[Dict[str, object]] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def observe(
        self,
        seconds: float,
        digest: str,
        prop: str,
        method: str,
        trace_id: Optional[str] = None,
        stages: Optional[Dict[str, float]] = None,
    ) -> bool:
        """Record one completed query; True when it crossed the threshold."""
        if self.threshold <= 0:
            return False
        with self._lock:
            self.observed += 1
            if seconds < self.threshold:
                return False
            self.logged += 1
            entry: Dict[str, object] = {
                "seconds": round(seconds, 6),
                "digest": digest,
                "prop": prop,
                "method": method,
            }
            if trace_id:
                entry["trace_id"] = trace_id
            if stages:
                entry["stages"] = {k: round(v, 6) for k, v in stages.items()}
            self._entries.append(entry)
            return True

    def entries(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "threshold": self.threshold,
                "observed": self.observed,
                "logged": self.logged,
                "entries": len(self._entries),
            }


def bdd_tags(manager) -> Dict[str, object]:
    """The kernel counters worth pinning to a span: a compact dict for
    ``span.set_tags`` so a trace explains where BDD time went."""
    stats = manager.stats()
    lookups = stats.get("apply_cache_lookups", 0)
    hits = stats.get("apply_cache_hits", 0)
    return {
        "bdd.apply_calls": stats.get("apply_calls", 0),
        "bdd.apply_cache_hit_ratio": round(hits / lookups, 4) if lookups else 0.0,
        "bdd.and_exists_calls": stats.get("and_exists_calls", 0),
        "bdd.nodes": stats.get("nodes", 0),
        "bdd.peak_nodes": stats.get("peak_nodes", 0),
    }


def bdd_tag_delta(before: Dict[str, object], manager) -> Dict[str, object]:
    """Like :func:`bdd_tags` but with the monotone counters expressed as
    deltas against a ``before`` snapshot — what one span actually cost."""
    now = bdd_tags(manager)
    out = dict(now)
    for key in ("bdd.apply_calls", "bdd.and_exists_calls"):
        out[key] = now[key] - before.get(key, 0)
    return out
