"""Simulation runtime for generated code.

The generated C code of the paper reads inputs through ``r_<process>_<x>``
functions and writes outputs through ``w_<process>_<x>``; the simulation
``main`` iterates the transition function until an input stream is exhausted.
This module provides the Python equivalents: stream-backed IO objects and the
:func:`simulate` loop.

Since the deployment-runtime work the IO objects are also the hot path of
fleet-scale execution: per-signal read/write logs are allocated once (not
``setdefault``-rebuilt on every call), live streams can be extended with
:meth:`StreamIO.feed`, and :meth:`StreamIO.reader` / :meth:`StreamIO.writer`
hand out bound fast-path callables that the step closures of
:mod:`repro.codegen.sequential` close over — one deque ``popleft`` / list
``append`` per event, no per-step dictionary lookups.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs import trace as obs_trace


class EndOfStream(Exception):
    """Raised by :meth:`StreamIO.read` when an input stream is exhausted."""


class StreamIO:
    """Finite input streams and recorded output streams.

    ``read`` pops the next value of an input signal (raising
    :class:`EndOfStream` when exhausted, which makes the generated step
    function return ``False`` exactly like the paper's simulation code);
    ``write`` appends to the signal's output trace.  ``feed`` appends fresh
    values to a live input stream, so a long-running deployment can be driven
    incrementally (the batch runtime and watch-style drivers use this).
    """

    def __init__(self, inputs: Optional[Mapping[str, Sequence[object]]] = None):
        self._inputs: Dict[str, Deque[object]] = {
            name: deque(values) for name, values in (inputs or {}).items()
        }
        self.outputs: Dict[str, List[object]] = {}
        # one log list per known input, created up front: the per-read
        # ``setdefault`` rebuild was a measurable hot-path allocation
        self.reads: Dict[str, List[object]] = {name: [] for name in self._inputs}

    def read(self, name: str) -> object:
        queue = self._inputs.get(name)
        if not queue:
            raise EndOfStream(name)
        value = queue.popleft()
        self.reads[name].append(value)
        return value

    def write(self, name: str, value: object) -> None:
        log = self.outputs.get(name)
        if log is None:
            log = self.outputs[name] = []
        log.append(value)

    def feed(self, name: str, values: Iterable[object]) -> None:
        """Append ``values`` to the (possibly new) input stream ``name``."""
        queue = self._inputs.get(name)
        if queue is None:
            queue = self._inputs[name] = deque()
            self.reads.setdefault(name, [])
        queue.extend(values)

    def reader(self, name: str) -> Callable[[], object]:
        """A bound fast-path read callable for one input signal.

        The returned closure pops the live deque directly (so values added
        later with :meth:`feed` are seen) and appends to the pre-created
        read log — no dictionary lookups per call.  Raises
        :class:`EndOfStream` exactly like :meth:`read`.
        """
        queue = self._inputs.get(name)
        if queue is None:
            queue = self._inputs[name] = deque()
        log = self.reads.setdefault(name, [])

        def read_one(
            popleft: Callable[[], object] = queue.popleft,
            append: Callable[[object], None] = log.append,
        ) -> object:
            try:
                value = popleft()
            except IndexError:
                raise EndOfStream(name) from None
            append(value)
            return value

        return read_one

    def writer(self, name: str) -> Callable[[object], None]:
        """A bound fast-path write callable (the output list's ``append``)."""
        log = self.outputs.get(name)
        if log is None:
            log = self.outputs[name] = []
        return log.append

    def available(self, name: str) -> bool:
        return bool(self._inputs.get(name))

    def remaining(self, name: str) -> int:
        return len(self._inputs.get(name, ()))

    def exhausted(self) -> bool:
        return all(not queue for queue in self._inputs.values())

    def output(self, name: str) -> List[object]:
        return list(self.outputs.get(name, []))


class RecordingIO(StreamIO):
    """A :class:`StreamIO` that also records, per step, which signals were read.

    Used by the controller and the tests to compare the synchronization
    behaviour of generated code with the interpreter oracle.
    """

    def __init__(self, inputs: Optional[Mapping[str, Sequence[object]]] = None):
        super().__init__(inputs)
        self.step_log: List[Dict[str, object]] = []
        self._current: Dict[str, object] = {}

    def read(self, name: str) -> object:
        value = super().read(name)
        self._current[name] = value
        return value

    def write(self, name: str, value: object) -> None:
        super().write(name, value)
        self._current[f"-> {name}"] = value

    def reader(self, name: str) -> Callable[[], object]:
        # the recording semantics need the per-step log, so the fast path
        # degrades to the (still correct) virtual read
        return lambda: self.read(name)

    def writer(self, name: str) -> Callable[[object], None]:
        return lambda value: self.write(name, value)

    def end_step(self) -> None:
        self.step_log.append(dict(self._current))
        self._current = {}


def simulate(step, io: StreamIO, max_steps: int = 1_000_000) -> int:
    """Iterate a generated step function until it returns ``False``.

    Mirrors the paper's simulation ``main``: ``while (code) code = iterate();``.
    Returns the number of completed steps.  With tracing enabled the whole
    simulation is one ``deploy.simulate`` span tagged with the step count.
    """
    if not obs_trace.TRACING:
        return _simulate(step, io, max_steps)
    with obs_trace.span("deploy.simulate") as active:
        steps = _simulate(step, io, max_steps)
        active.set_tag("steps", steps)
        return steps


def _simulate(step, io: StreamIO, max_steps: int) -> int:
    steps = 0
    recording = isinstance(io, RecordingIO)
    while steps < max_steps:
        if not step(io):
            break
        steps += 1
        if recording:
            io.end_step()
    return steps
