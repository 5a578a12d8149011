"""Concurrent code generation: one thread per component, barrier rendez-vous.

Section 5.2 ends with the concurrent variant of the compositional scheme: the
producer and the consumer are compiled separately, run in their own threads,
and the reported clock constraint (``[¬a] = [b]``) is implemented by a pair
of barriers protecting the shared variable ``x`` — the Python equivalent of
the paper's ``pthread_barrier_wait(begin_RDV)`` / ``(end_RDV)`` code.

:class:`ConcurrentComposition` is only the execution vehicle.  Every
scheduling decision comes from the
:class:`~repro.codegen.controller.ControlledComposition` it runs: the
coordinating thread calls :meth:`~ControlledComposition.plan` to open a
global step, then releases the components' threads one dependency level at
a time between the level's begin and end barriers, and each thread runs its
component through :meth:`~ControlledComposition.execute`.  No component of
a level writes a signal another one of the level touches, so a shared value
is written (level ``k``) before it is read (a later level), and no two
threads pop the same stream.  Both vehicles therefore produce the same
flows by construction.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set

from repro.codegen.controller import ControlledComposition
from repro.codegen.runtime import StreamIO


def _dependency_levels(schedule: ControlledComposition) -> List[List[str]]:
    """The schedule's components grouped into levels that may step at once.

    A component goes one level below every component before it in the
    dependency order that writes a signal it touches, or touches a signal
    it writes; popping an external input stream counts as a write.  Readers
    of one shared value may share a level.
    """
    external = set(schedule.external_inputs)
    level: Dict[str, int] = {}
    touches: Dict[str, Set[str]] = {}
    writes: Dict[str, Set[str]] = {}
    for name, compiled in schedule.components.items():
        inputs, outputs = set(compiled.process.inputs), set(compiled.process.outputs)
        touches[name] = inputs | outputs
        writes[name] = outputs | (inputs & external)
        level[name] = 1 + max(
            (
                level[other]
                for other in level
                if writes[other] & touches[name] or writes[name] & touches[other]
            ),
            default=-1,
        )
    levels: List[List[str]] = [[] for _ in range(1 + max(level.values(), default=-1))]
    for name, index in level.items():
        levels[index].append(name)
    return levels


class ConcurrentComposition:
    """Executes a controlled composition's schedule on one thread per component."""

    def __init__(self, schedule: ControlledComposition):
        self.schedule = schedule

    def run(self, io: StreamIO, max_steps: int = 10_000) -> int:
        """Run global steps until a stream runs dry or ``max_steps``; the step count.

        A component's exception is raised here once every thread has stopped.
        """
        schedule = self.schedule
        levels = _dependency_levels(schedule)
        barriers = [
            (threading.Barrier(len(level) + 1), threading.Barrier(len(level) + 1))
            for level in levels
        ]
        running: Set[str] = set()
        ran: Dict[str, bool] = {}
        failures: List[BaseException] = []

        def component_thread(name: str, begin: threading.Barrier, end: threading.Barrier) -> None:
            try:
                while True:
                    begin.wait()
                    if name in running:
                        try:
                            ran[name] = schedule.execute(name, io)
                        except BaseException as error:
                            failures.append(error)
                            ran[name] = False
                    end.wait()
            except threading.BrokenBarrierError:
                return  # the coordinator ended the run

        threads = [
            threading.Thread(target=component_thread, args=(name, *pair), daemon=True)
            for level, pair in zip(levels, barriers)
            for name in level
        ]

        def global_step() -> bool:
            for level, (begin, end) in zip(levels, barriers):
                active = [name for name in level if name in running]
                if active:
                    begin.wait()
                    end.wait()
                    if not all(ran[name] for name in active):
                        return False
            return True

        for thread in threads:
            thread.start()
        steps = 0
        try:
            while steps < max_steps:
                planned = schedule.plan(io)
                if planned is None:
                    break
                running.clear()
                running.update(planned)
                if not global_step():
                    break
                steps += 1
        finally:
            for begin, end in barriers:
                begin.abort()
                end.abort()
            for thread in threads:
                thread.join()
        if failures:
            raise failures[0]
        return steps
