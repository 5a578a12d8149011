"""Execution environments: how input signals are fed to a process.

Two environments are provided, mirroring the two sides of isochrony:

* :class:`ReactiveEnvironment` — the *synchronous* view: for every instant it
  dictates which inputs are present and with which values (a prescribed
  timing of the environment);
* :class:`FlowEnvironment` — the *asynchronous* view: each input carries a
  FIFO of values with no timing information, which is exactly the information
  preserved by flow equivalence.  The environment answers "is a value
  available?" and hands values out in order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.semantics.interpreter import ABSENT


class ReactiveEnvironment:
    """A prescribed, instant-indexed assignment of the input signals.

    ``schedule`` is a sequence of instants; each instant maps input names to a
    value or :data:`~repro.semantics.interpreter.ABSENT`.  Inputs not
    mentioned in an instant are absent.
    """

    def __init__(self, inputs: Sequence[str], schedule: Sequence[Mapping[str, object]]):
        self.inputs = tuple(inputs)
        self.schedule: List[Dict[str, object]] = [dict(instant) for instant in schedule]
        unknown = {
            name for instant in self.schedule for name in instant if name not in self.inputs
        }
        if unknown:
            raise ValueError(f"schedule mentions non-input signals: {sorted(unknown)}")

    def __len__(self) -> int:
        return len(self.schedule)

    def instant(self, index: int) -> Dict[str, object]:
        """The complete input assignment of instant ``index`` (absences made explicit)."""
        prescribed = self.schedule[index] if index < len(self.schedule) else {}
        return {name: prescribed.get(name, ABSENT) for name in self.inputs}

    def instants(self) -> Iterable[Dict[str, object]]:
        for index in range(len(self.schedule)):
            yield self.instant(index)


class FlowEnvironment:
    """Untimed input flows: one FIFO of values per input signal.

    This is the asynchronous environment of the paper: the network preserves
    the sequence of values of every signal but not their synchronization.
    """

    def __init__(self, flows: Mapping[str, Sequence[object]]):
        self._flows: Dict[str, Deque[object]] = {
            name: deque(values) for name, values in flows.items()
        }
        self._consumed: Dict[str, List[object]] = {name: [] for name in flows}

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(sorted(self._flows))

    def available(self, name: str) -> bool:
        """True iff the flow of ``name`` still holds at least one value."""
        return bool(self._flows.get(name))

    def peek(self, name: str) -> object:
        """The next value of ``name`` without consuming it."""
        if not self._flows.get(name):
            raise IndexError(f"flow of signal {name!r} is exhausted")
        return self._flows[name][0]

    def pop(self, name: str) -> object:
        """Consume and return the next value of ``name``."""
        if not self._flows.get(name):
            raise IndexError(f"flow of signal {name!r} is exhausted")
        value = self._flows[name].popleft()
        self._consumed[name].append(value)
        return value

    def push_back(self, name: str, value: object) -> None:
        """Return a value to the front of the flow (used by exploration)."""
        self._flows[name].appendleft(value)
        if self._consumed[name] and self._consumed[name][-1] == value:
            self._consumed[name].pop()

    def remaining(self, name: str) -> Tuple[object, ...]:
        return tuple(self._flows.get(name, ()))

    def consumed(self, name: str) -> Tuple[object, ...]:
        return tuple(self._consumed.get(name, ()))

    def exhausted(self) -> bool:
        """True iff every input flow has been fully consumed."""
        return all(not values for values in self._flows.values())

    def copy(self) -> "FlowEnvironment":
        clone = FlowEnvironment({name: tuple(values) for name, values in self._flows.items()})
        clone._consumed = {name: list(values) for name, values in self._consumed.items()}
        return clone
