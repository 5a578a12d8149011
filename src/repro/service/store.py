"""The content-addressed artifact store: pay for compilation once, ever.

Artifacts live on disk under ``<root>/objects/<digest[:2]>/<digest>/<kind>.json``
— the same layout whether the store is read by the serving process, by a
process-pool worker, or by a later service run.  The stored kinds:

* ``compiled`` — the serialized BDD step relation of a process
  (:meth:`repro.mc.compiled.CompiledAbstraction.to_payload`), or the
  persisted *negative* answer (process outside the compiled fragment, with
  its obstacles) so warm starts skip the recompile attempt entirely;
* ``diagnosis`` — the per-component obligation of the weakly hierarchic
  criterion (compilable / hierarchic / roots,
  :class:`~repro.properties.composition.ComponentDiagnosis`), keyed by the
  component digest;
* ``obligations-<composition>`` — the composition-level clauses of
  Definition 12 (:class:`~repro.properties.composition.CompositionObligations`),
  keyed by the design digest and suffixed with the composition's own
  content digest (a custom composition differs from the plain compose);
* ``analysis`` — per-process analysis summaries of a design (composition
  and components), served by the service's ``describe`` operation without
  recomputation;
* ``verdict-<query>`` — completed verdicts, one object per
  ``(property, method, options)`` query of a design.  Verification of a
  content-addressed design is deterministic, so a verdict is itself
  content-addressable: a restarted service answers repeat queries from
  disk without running any pipeline stage.

The store is the **persistent tier** of the session's
:class:`~repro.api.artifacts.ArtifactGraph`: attaching it as
``AnalysisContext.artifact_cache`` plugs :meth:`get` / :meth:`put` under
every persistent stage of the pipeline, which is how a warm store
accelerates all of them — compilations, per-component diagnoses,
composition obligations and completed verdicts alike — and how every
engine of the session (single process, lazy product, retyped product
components) transparently reuses persisted relations.  The graph is the
only reader and writer of ``compiled`` objects: their codec is
:func:`repro.mc.compiled.compiled_artifact_payload` /
:func:`~repro.mc.compiled.compiled_from_artifact`.

Writes are atomic (temp file + ``os.replace``), so concurrent services
sharing a store directory can race on the same artifact and both end up
with an intact object; content-addressing makes the race benign (both
write the same bytes, modulo float jitter in nothing — payloads are pure
functions of the process).

**Self-healing.**  Atomic writes cannot protect against what happens to an
object *after* it lands — bit rot, a careless editor, a partially-synced
filesystem.  Objects are therefore written as checksummed envelopes: a
one-line JSON header carrying the CRC-32 of the payload bytes, then the
payload itself.  (A checksum, not a cryptographic digest: the envelope
detects accidental corruption — anything that can forge a payload can
forge the header beside it, so a stronger hash would buy no security,
only a slower warm read.)  :meth:`get` verifies the checksum before
parsing; an object
that fails verification (or fails to parse at all) is **quarantined** —
moved to ``<root>/corrupt/<digest>-<kind>.json`` — and reported as a miss,
so the caller recomputes and the next :meth:`put` heals the entry.  A
corrupted object can therefore cost one recomputation, never a wrong
answer.  Pre-envelope objects (no header line) still read, counted as
``unverified``.  Write failures (``OSError``, disk full, injected) are
absorbed and counted — the store is a cache; losing a write degrades
performance, not correctness.

An optional :class:`~repro.service.faults.FaultPlan` injects read/write
faults at this boundary; the chaos suite drives the quarantine/heal path
through it deterministically.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs import trace as obs_trace
from repro.service.faults import FaultPlan

from repro.api.artifacts import verdict_kind


class ArtifactStore:
    """A directory of JSON artifacts keyed by ``(content digest, kind)``.

    ``checksums=False`` writes/reads the pre-envelope format (no integrity
    header) — kept for the benchmark that gates the envelope's warm-path
    overhead and for byte-compatible comparisons, not for production use.
    """

    #: first bytes of a checksummed envelope's header line
    HEADER_PREFIX = '{"repro-store"'
    #: the key preceding the payload checksum in the header's json.dumps shape
    CHECKSUM_MARKER = '"crc32": '
    FORMAT = 1

    def __init__(
        self,
        root: Union[str, Path],
        fault_plan: Optional[FaultPlan] = None,
        checksums: bool = True,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fault_plan = fault_plan
        self.checksums = checksums
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalid = 0
        #: objects whose envelope digest verified on read
        self.verified = 0
        #: legacy objects read without an integrity header
        self.unverified = 0
        #: corrupt objects moved aside to ``corrupt/`` (or deleted)
        self.quarantined = 0
        #: writes absorbed as failures (real or injected OSError)
        self.write_errors = 0
        #: reads that failed with an injected OSError
        self.read_errors = 0
        #: quarantined entries later rewritten by a put (self-heals completed)
        self.healed = 0
        #: (digest, kind) pairs quarantined and not yet healed
        self._quarantined_keys: set = set()

    # -- raw object access -------------------------------------------------------
    def path(self, digest: str, kind: str) -> Path:
        return self.root / "objects" / digest[:2] / digest / f"{kind}.json"

    def corrupt_path(self, digest: str, kind: str) -> Path:
        return self.root / "corrupt" / f"{digest}-{kind}.json"

    def has(self, digest: str, kind: str) -> bool:
        return self.path(digest, kind).is_file()

    def _decode(self, text: str) -> Optional[Dict[str, object]]:
        """Parse (and, for envelopes, verify) one object's text.

        ``None`` means the object is corrupt — torn, bit-flipped, or an
        envelope whose payload does not checksum to its header's value.
        """
        if text.startswith(self.HEADER_PREFIX):
            head, newline, body = text.partition("\n")
            if not newline:
                return None  # torn before the payload even started
            # the header is this store's own fixed json.dumps shape; slicing
            # the checksum out beats a json.loads on every warm read, and any
            # corruption that breaks the shape fails the comparison anyway
            marker = head.find(self.CHECKSUM_MARKER)
            if marker < 0:
                return None
            start = marker + len(self.CHECKSUM_MARKER)
            end = head.find("}", start)
            try:
                expected = int(head[start:end])
            except ValueError:
                return None
            if zlib.crc32(body.encode("utf-8")) != expected:
                return None
            try:
                payload = json.loads(body)
            except ValueError:  # pragma: no cover - digest already matched
                return None
            self.verified += 1
            return payload
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        self.unverified += 1
        return payload

    def _quarantine(self, path: Path, digest: str, kind: str) -> None:
        """Move a corrupt object out of the store so it cannot poison reads.

        The quarantined copy is kept under ``corrupt/`` for post-mortems;
        when even the move fails the object is deleted — a corrupt object
        left in place would fail every future read.
        """
        target = self.corrupt_path(digest, kind)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1
        self._quarantined_keys.add((digest, kind))
        if obs_trace.TRACING:
            obs_trace.add_event("store.quarantine", digest=digest[:12], kind=kind)

    def get(self, digest: str, kind: str) -> Optional[Dict[str, object]]:
        """The stored payload, or ``None`` on a miss or a corrupt object.

        A corrupt object — failed checksum, torn or unparseable text — is
        quarantined to ``corrupt/`` and reported as a miss; the caller's
        recomputation and the following :meth:`put` heal the entry.
        """
        if not obs_trace.TRACING:
            return self._read(digest, kind)[0]
        with obs_trace.span(
            "store.get", digest=digest[:12], kind=kind
        ) as read_span:
            payload, outcome = self._read(digest, kind)
            read_span.set_tag("outcome", outcome)
            return payload

    def _read(self, digest: str, kind: str):
        """``(payload, outcome)`` with outcome ∈ hit/miss/corrupt/read_error."""
        path = self.path(digest, kind)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None, "miss"
        if self.fault_plan is not None:
            try:
                text = self.fault_plan.store_read(text)
            except OSError:
                self.read_errors += 1
                self.misses += 1
                return None, "read_error"
        payload = self._decode(text)
        if payload is None:
            self._quarantine(path, digest, kind)
            self.invalid += 1
            self.misses += 1
            return None, "corrupt"
        self.hits += 1
        return payload, "hit"

    def put(
        self, digest: str, kind: str, payload: Dict[str, object]
    ) -> Optional[Path]:
        """Atomically write one artifact; concurrent writers cannot tear it.

        Returns the object path, or ``None`` when the write failed — the
        store is a cache, so a failed write (disk full, permissions, an
        injected fault) is absorbed and counted in ``write_errors`` rather
        than failing the computation whose result it was persisting.
        """
        if not obs_trace.TRACING:
            return self._write(digest, kind, payload)
        with obs_trace.span(
            "store.put", digest=digest[:12], kind=kind
        ) as write_span:
            path = self._write(digest, kind, payload)
            write_span.set_tag("outcome", "ok" if path is not None else "error")
            return path

    def _write(
        self, digest: str, kind: str, payload: Dict[str, object]
    ) -> Optional[Path]:
        body = json.dumps(payload)
        if self.checksums:
            header = json.dumps(
                {
                    "repro-store": self.FORMAT,
                    "crc32": zlib.crc32(body.encode("utf-8")),
                }
            )
            content = header + "\n" + body
        else:
            content = body
        fault = self.fault_plan.store_write() if self.fault_plan is not None else None
        path = self.path(digest, kind)
        try:
            if fault is not None and fault[0] == "oserror":
                raise OSError("injected artifact write failure")
            if fault is not None and fault[0] == "torn":
                # what a non-atomic writer would have left behind: a prefix
                content = content[: max(1, int(len(content) * fault[1]))]
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                prefix=f".{kind}-", suffix=".json", dir=path.parent
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    stream.write(content)
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except OSError:
            self.write_errors += 1
            return None
        self.writes += 1
        if (digest, kind) in self._quarantined_keys:
            self._quarantined_keys.discard((digest, kind))
            self.healed += 1
            if obs_trace.TRACING:
                obs_trace.add_event("store.heal", digest=digest[:12], kind=kind)
        return path

    # -- analysis summaries --------------------------------------------------------
    def load_analysis(self, digest: str) -> Optional[Dict[str, object]]:
        return self.get(digest, "analysis")

    def store_analysis(self, digest: str, summary: Dict[str, object]) -> None:
        self.put(digest, "analysis", summary)

    # -- persisted verdicts ----------------------------------------------------------
    # A verification query on a content-addressed design is deterministic:
    # same digest, same property, same method, same options ⇒ same verdict.
    # That makes completed verdicts themselves content-addressable artifacts
    # (filed under the design digest, one object per query), so a restarted
    # service — or another worker process — answers repeat queries from disk
    # without touching the pipeline at all.
    @staticmethod
    def query_kind(prop: str, method: str, options_key: str) -> str:
        # one naming scheme with the session facade's verdict nodes
        # (repro.api.artifacts.verdict_kind), so a verdict a Design persists
        # is the object the service answers the repeat query from
        return verdict_kind(prop, method, options_key)

    def load_verdict(
        self, digest: str, prop: str, method: str, options_key: str
    ) -> Optional[Dict[str, object]]:
        return self.get(digest, self.query_kind(prop, method, options_key))

    def store_verdict(
        self,
        digest: str,
        prop: str,
        method: str,
        options_key: str,
        verdict: Dict[str, object],
    ) -> None:
        self.put(digest, self.query_kind(prop, method, options_key), verdict)

    # -- reporting -----------------------------------------------------------------
    def object_count(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for path in objects.glob("*/*/*.json"))

    def stats(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "objects": self.object_count(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
            "verified": self.verified,
            "unverified": self.unverified,
            "quarantined": self.quarantined,
            "healed": self.healed,
            "write_errors": self.write_errors,
            "read_errors": self.read_errors,
            "checksums": self.checksums,
        }
