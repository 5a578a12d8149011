"""The name of the BDD kernel: :class:`~repro.bdd.bdd.BDDManager` is the only one."""

from __future__ import annotations

from typing import Optional


def resolve_backend(backend: Optional[str] = None) -> str:
    # kept because the perf harness records the kernel name in its run fingerprint
    return "reference"
