"""Concurrent code generation: one thread per component, barrier rendez-vous.

Section 5.2 ends with the concurrent variant of the compositional scheme: the
producer and the consumer are compiled separately, run in their own threads,
and the reported clock constraint (``[¬a] = [b]``) is implemented by a pair
of barriers protecting the shared variable ``x`` — the Python equivalent of
the paper's ``pthread_barrier_wait(begin_RDV)`` / ``(end_RDV)`` code.

The scheduling decisions are identical to those of the sequential
:class:`~repro.codegen.controller.ControlledComposition`; only the execution
vehicle changes (threads and barriers instead of a sequential controller), so
both schemes produce the same flows — which is what weak isochrony promises.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.codegen.controller import ClockConstraintSpec, shared_signals
from repro.codegen.runtime import EndOfStream, StreamIO
from repro.codegen.sequential import CompiledProcess


class _ThreadIO:
    """Per-thread IO: private input streams, shared store guarded by barriers."""

    def __init__(
        self,
        inputs: Mapping[str, Sequence[object]],
        shared_signals: Set[str],
        shared_store: Dict[str, object],
        outputs: Dict[str, List[object]],
        lock: threading.Lock,
    ):
        self._streams = {name: list(values) for name, values in inputs.items()}
        self._cursor = {name: 0 for name in inputs}
        self._shared_signals = shared_signals
        self._shared_store = shared_store
        self._outputs = outputs
        self._lock = lock

    def read(self, name: str) -> object:
        if name in self._shared_signals:
            if name not in self._shared_store:
                raise EndOfStream(name)
            return self._shared_store[name]
        stream = self._streams.get(name)
        if stream is None or self._cursor[name] >= len(stream):
            raise EndOfStream(name)
        value = stream[self._cursor[name]]
        self._cursor[name] += 1
        return value

    def write(self, name: str, value: object) -> None:
        if name in self._shared_signals:
            self._shared_store[name] = value
            return
        with self._lock:
            self._outputs.setdefault(name, []).append(value)


@dataclass
class ConcurrentComposition:
    """Separately compiled components executed by threads with barrier rendez-vous."""

    components: Sequence[CompiledProcess]
    constraints: Sequence[ClockConstraintSpec]
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        self._shared_signals = shared_signals([compiled.process for compiled in self.components])

    def run(self, inputs: Mapping[str, Sequence[object]]) -> Dict[str, List[object]]:
        """Run every component in its own thread until its inputs are exhausted.

        Returns the recorded output flows.  Rendez-vous points are realized by
        a begin/end barrier pair per constraint: the producing side writes the
        shared value between the two barriers, the consuming side reads it.
        """
        outputs: Dict[str, List[object]] = {}
        shared_store: Dict[str, object] = {}
        lock = threading.Lock()
        barriers: Dict[int, Tuple[threading.Barrier, threading.Barrier]] = {}
        for index, _constraint in enumerate(self.constraints):
            barriers[index] = (threading.Barrier(2), threading.Barrier(2))

        errors: List[BaseException] = []

        def run_component(compiled: CompiledProcess) -> None:
            component_inputs = {
                name: inputs.get(name, ())
                for name in compiled.process.inputs
                if name not in self._shared_signals
            }
            io = _ThreadIO(component_inputs, self._shared_signals, shared_store, outputs, lock)
            relevant = [
                (index, constraint.literal_for(compiled.process.name))
                for index, constraint in enumerate(self.constraints)
                if constraint.literal_for(compiled.process.name) is not None
            ]
            # one persistent wrapper per thread: a stable IO identity keeps
            # the specialized tier's bound step closure valid across steps
            wrapped = _PrefetchedIO({}, io)
            try:
                for _ in range(self.max_steps):
                    peeked: Dict[str, object] = {}
                    for name in component_inputs:
                        try:
                            peeked[name] = io.read(name)
                        except EndOfStream:
                            return
                    synchronized = [
                        index
                        for index, literal in relevant
                        if literal is not None
                        and literal.signal in peeked
                        and literal.holds(peeked[literal.signal])
                    ]
                    # The writing side of the shared store steps between the two
                    # barriers; the reading side steps after the end barrier, so
                    # the shared value is always produced before it is consumed.
                    produces_shared = bool(
                        set(compiled.process.outputs) & self._shared_signals
                    )
                    for index in synchronized:
                        barriers[index][0].wait(timeout=5.0)
                    wrapped.refill(peeked)
                    if produces_shared or not synchronized:
                        if not compiled.step(wrapped):
                            return
                        for index in synchronized:
                            barriers[index][1].wait(timeout=5.0)
                    else:
                        for index in synchronized:
                            barriers[index][1].wait(timeout=5.0)
                        if not compiled.step(wrapped):
                            return
            except threading.BrokenBarrierError:
                return
            except BaseException as error:  # pragma: no cover - surfaced to the caller
                errors.append(error)

        threads = [
            threading.Thread(target=run_component, args=(compiled,), daemon=True)
            for compiled in self.components
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        for index in barriers:
            barriers[index][0].abort()
            barriers[index][1].abort()
        if errors:
            raise errors[0]
        return outputs


class _PrefetchedIO:
    """Serve values already read during constraint evaluation, then delegate.

    Persistent per thread and :meth:`refill`-ed each step, so the specialized
    execution tier binds it once.
    """

    def __init__(self, prefetched: Dict[str, object], inner: _ThreadIO):
        self._prefetched = dict(prefetched)
        self._inner = inner

    def refill(self, prefetched: Dict[str, object]) -> None:
        self._prefetched = dict(prefetched)

    def read(self, name: str) -> object:
        if name in self._prefetched:
            return self._prefetched.pop(name)
        return self._inner.read(name)

    def write(self, name: str, value: object) -> None:
        self._inner.write(name, value)


def run_concurrent(
    components: Sequence[CompiledProcess],
    constraints: Sequence[ClockConstraintSpec],
    inputs: Mapping[str, Sequence[object]],
    max_steps: int = 10_000,
) -> Dict[str, List[object]]:
    """Convenience wrapper: build a :class:`ConcurrentComposition` and run it."""
    return ConcurrentComposition(components, constraints, max_steps).run(inputs)
