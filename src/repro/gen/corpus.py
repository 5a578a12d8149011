"""A persisted corpus of generated designs with known verdicts.

The corpus is the regression memory of the generator subsystem: a JSON file
of entries, one per seeded design, each carrying

* **provenance** — ``seed``, ``family``, ``params``, generation ``depth``:
  the complete recipe, since :func:`repro.gen.topologies.sample_design` is
  deterministic from an explicit seed;
* **identity** — the design's :func:`~repro.lang.printer.canonical_digest`
  plus the per-component canonical forms (α- and order-invariant), so an
  entry is content-addressed with exactly the identity the
  :class:`~repro.service.store.ArtifactStore` and the session facade key
  verdicts by;
* **verdicts** — the full :meth:`~repro.api.results.Verdict.to_dict`
  payload of every recorded ``(property, method)`` query.

That combination makes one file serve two roles:

* **regression oracle** — :func:`check_corpus` regenerates each design from
  its seed, asserts the digest still matches (catching *generator* drift:
  a grammar or topology change that silently alters what a seed means),
  then re-verifies every recorded query and compares outcomes (catching
  *engine* drift: a backend change that flips a verdict) and the rest of
  the recorded payload (a renamed diagnostic or a changed cost is drift
  too, because the warm store serves the recorded payload verbatim).  CI
  runs this on every pull request.
* **warm-store seed** — :func:`seed_store` files every recorded verdict
  into an :class:`~repro.service.store.ArtifactStore` under the design
  digest and the same ``verdict-*`` object names the session facade uses,
  so a fresh service answers the corpus's queries from disk without
  recomputing (and the service benchmarks get a realistic mixed
  cold/warm workload from it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.gen.topologies import FAMILIES, GeneratedDesign, sample_design
from repro.lang.printer import format_canonical, options_fingerprint

#: the (property, method) queries recorded for every corpus entry
DEFAULT_QUERIES: Tuple[Tuple[str, str], ...] = tuple(
    (prop, method)
    for prop in ("weak-endochrony", "non-blocking")
    for method in ("static", "explicit", "compiled", "symbolic")
)

CORPUS_VERSION = 1

#: the cost fields a re-run must reproduce; not ``seconds`` (wall-clock) nor
#: ``bdd_nodes``, which depends on the variable order a context shared across
#: designs (``corpus check --store``) took from its first design
COMPARED_COSTS: Tuple[str, ...] = ("states", "transitions", "state_bound", "components")


def _query_key(prop: str, method: str) -> str:
    return f"{prop}|{method}"


@dataclass(frozen=True)
class CorpusEntry:
    """One design of the corpus: provenance, identity and known verdicts."""

    seed: int
    name: str
    family: str
    params: Mapping[str, object]
    depth: int
    digest: str
    components: Tuple[str, ...]  # canonical forms, for inspection/diffing
    verdicts: Mapping[str, Mapping[str, object]]  # "prop|method" -> Verdict payload

    def regenerate(self) -> GeneratedDesign:
        """The design this entry describes, rebuilt from its seed."""
        return sample_design(self.seed, depth=self.depth)

    def holds(self, prop: str, method: str) -> Optional[bool]:
        payload = self.verdicts.get(_query_key(prop, method))
        return None if payload is None else bool(payload["holds"])

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "name": self.name,
            "family": self.family,
            "params": dict(self.params),
            "depth": self.depth,
            "digest": self.digest,
            "components": list(self.components),
            "verdicts": {key: dict(value) for key, value in self.verdicts.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CorpusEntry":
        return cls(
            seed=int(payload["seed"]),
            name=str(payload["name"]),
            family=str(payload["family"]),
            params=dict(payload.get("params", {})),
            depth=int(payload.get("depth", 2)),
            digest=str(payload["digest"]),
            components=tuple(payload.get("components", ())),
            verdicts={
                str(key): dict(value)
                for key, value in payload.get("verdicts", {}).items()
            },
        )


@dataclass
class Corpus:
    """A set of corpus entries plus the query options they were decided under.

    ``max_states`` is part of the corpus, not of each entry: the recorded
    verdicts are only comparable to re-runs under the same exploration
    budget, and the store keys (``options_fingerprint``) depend on it.
    """

    entries: List[CorpusEntry] = field(default_factory=list)
    max_states: int = 256
    version: int = CORPUS_VERSION

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def options(self) -> Dict[str, object]:
        return {"max_states": self.max_states}

    def options_key(self) -> str:
        return options_fingerprint(self.options())

    def by_digest(self) -> Dict[str, CorpusEntry]:
        return {entry.digest: entry for entry in self.entries}

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "max_states": self.max_states,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Corpus":
        version = int(payload.get("version", CORPUS_VERSION))
        if version > CORPUS_VERSION:
            raise ValueError(
                f"corpus version {version} is newer than supported {CORPUS_VERSION}"
            )
        return cls(
            entries=[
                CorpusEntry.from_dict(item) for item in payload.get("entries", ())
            ],
            max_states=int(payload.get("max_states", 256)),
            version=version,
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Corpus":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def build_entry(
    generated: GeneratedDesign,
    context=None,
    queries: Sequence[Tuple[str, str]] = DEFAULT_QUERIES,
    max_states: int = 256,
    depth: int = 2,
) -> CorpusEntry:
    """Verify one generated design and record the outcome as a corpus entry."""
    design = generated.design(context=context)
    verdicts = design.verify_many(list(queries), max_states=max_states)
    return CorpusEntry(
        seed=generated.seed if generated.seed is not None else -1,
        name=generated.name,
        family=generated.family,
        params=dict(generated.params),
        depth=depth,
        digest=design.digest(),
        components=tuple(
            sorted(format_canonical(component) for component in generated.components)
        ),
        verdicts={
            _query_key(prop, method): verdict.to_dict()
            for (prop, method), verdict in zip(queries, verdicts)
        },
    )


def build_corpus(
    seeds: Iterable[int],
    families: Sequence[str] = FAMILIES,
    depth: int = 2,
    context=None,
    queries: Sequence[Tuple[str, str]] = DEFAULT_QUERIES,
    max_states: int = 256,
) -> Corpus:
    """Generate, verify and record one corpus entry per seed."""
    corpus = Corpus(max_states=max_states)
    for seed in seeds:
        generated = sample_design(seed, families=families, depth=depth)
        corpus.entries.append(
            build_entry(
                generated,
                context=context,
                queries=queries,
                max_states=max_states,
                depth=depth,
            )
        )
    return corpus


@dataclass(frozen=True)
class Drift:
    """One divergence between the corpus and the current code."""

    entry_name: str
    seed: int
    kind: str  # "digest", "verdict" or "payload"
    detail: str

    def describe(self) -> str:
        return f"{self.entry_name} (seed {self.seed}): {self.kind} drift — {self.detail}"


def _payload_fields(payload: Mapping[str, object]) -> Dict[str, object]:
    """The parts of a verdict payload a re-run must reproduce: the method,
    each diagnostic's ``(name, holds)`` and the :data:`COMPARED_COSTS`."""
    cost = payload.get("cost", {})
    fields: Dict[str, object] = {
        "method": payload.get("method"),
        "diagnostics": [
            (diagnostic["name"], bool(diagnostic["holds"]))
            for diagnostic in payload.get("diagnostics", ())
        ],
    }
    fields.update((name, cost.get(name)) for name in COMPARED_COSTS)
    return fields


def check_corpus(corpus: Corpus, context=None) -> List[Drift]:
    """Re-derive every entry and report all drift against the recorded state.

    Two checks per entry, in order: the regenerated design's digest must
    equal the recorded one (generator determinism — a failure here means a
    seed no longer denotes the same design, and the corpus must be
    explicitly rebuilt, not silently re-verified); then every recorded
    query is re-run and its outcome compared (engine regression, kind
    ``"verdict"``).  A query whose outcome still matches is compared field
    by field (:func:`_payload_fields`, kind ``"payload"``).  An entry whose
    digest drifted is not re-verified — its recorded verdicts describe a
    design that no longer exists.
    """
    drift: List[Drift] = []
    for entry in corpus.entries:
        generated = entry.regenerate()
        design = generated.design(context=context)
        digest = design.digest()
        if digest != entry.digest:
            drift.append(
                Drift(
                    entry_name=entry.name,
                    seed=entry.seed,
                    kind="digest",
                    detail=f"recorded {entry.digest[:12]}…, regenerated {digest[:12]}…",
                )
            )
            continue
        queries = [tuple(key.split("|", 1)) for key in entry.verdicts]
        verdicts = design.verify_many(
            [(prop, method) for prop, method in queries], **corpus.options()
        )
        for (prop, method), verdict in zip(queries, verdicts):
            recorded = entry.holds(prop, method)
            if bool(verdict.holds) != recorded:
                kind, detail = "verdict", f"recorded holds={recorded}, now holds={bool(verdict.holds)}"
            else:
                then = _payload_fields(entry.verdicts[_query_key(prop, method)])
                now = _payload_fields(verdict.to_dict())
                kind, detail = "payload", "; ".join(
                    f"{name} recorded {value!r}, now {now[name]!r}"
                    for name, value in then.items()
                    if value != now[name]
                )
            if detail:
                drift.append(Drift(entry.name, entry.seed, kind, f"{prop} via {method}: {detail}"))
    return drift


def seed_store(corpus: Corpus, store) -> int:
    """File every recorded verdict into an artifact store; returns the count.

    Objects land under ``(design digest, verdict-<prop>-<method>-<options>)``
    — the exact keys :meth:`repro.api.Design.verify` resolves through — so
    a context attached to the store afterwards answers the corpus's
    queries warm, without recomputation.
    """
    options_key = corpus.options_key()
    written = 0
    for entry in corpus.entries:
        for key, payload in entry.verdicts.items():
            prop, method = key.split("|", 1)
            store.store_verdict(entry.digest, prop, method, options_key, dict(payload))
            written += 1
    return written
