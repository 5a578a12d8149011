"""Signal-level synchronization processes in the spirit of Section 5.2.

The code generator of :mod:`repro.codegen.controller` synthesizes, at the
generated-code level, the controller of Section 5.2 — the component that
suspends a process once it has reached a reported clock constraint until its
peer reaches the matching constraint.  The synchronization skeleton of that
controller is itself expressible in Signal; :func:`rendezvous_controller_process`
provides it as a reusable library process (a two-party barrier), and
:func:`scheduler_process` the per-party half of it, mirroring the paper's
``scheduler`` sub-process.
"""

from __future__ import annotations

from repro.lang.ast import ProcessDefinition
from repro.lang.builder import ProcessBuilder, signal


def rendezvous_controller_process(name: str = "rendezvous") -> ProcessDefinition:
    """A two-party rendez-vous: fire when both sides have arrived.

    Inputs ``ta`` and ``tb`` are synchronous booleans meaning "this side has
    reached its synchronization point during this step"; outputs ``ga`` and
    ``gb`` grant the rendez-vous (both true at the instant where both sides
    have arrived, possibly after one side waited).  Pending arrivals are
    remembered in the ``wa`` / ``wb`` flags, exactly like the ``pre_ra`` /
    ``pre_rb`` variables of the generated ``main_iterate`` of Section 5.2.
    """
    builder = ProcessBuilder(name, inputs=["ta", "tb"], outputs=["ga", "gb"])
    builder.local("wa", "wb", "pwa", "pwb", "fire")
    builder.synchronize("ta", "tb", "fire", "wa", "wb", "ga", "gb")
    builder.define("pwa", signal("wa").pre(False))
    builder.define("pwb", signal("wb").pre(False))
    builder.define("fire", (signal("ta").or_(signal("pwa"))).and_(signal("tb").or_(signal("pwb"))))
    builder.define("wa", (signal("ta").or_(signal("pwa"))).and_(signal("fire").not_()))
    builder.define("wb", (signal("tb").or_(signal("pwb"))).and_(signal("fire").not_()))
    builder.define("ga", signal("fire"))
    builder.define("gb", signal("fire"))
    return builder.build()


def scheduler_process(name: str = "scheduler") -> ProcessDefinition:
    """One party's half of the rendez-vous, after the paper's ``scheduler``.

    Input ``arrived`` is true when the party reaches its synchronization
    point, ``peer_ready`` is true when the other party has arrived (possibly
    earlier); the output ``may_run`` tells the party whether it may execute
    this step (it must pause once it has arrived until the peer is ready).
    """
    builder = ProcessBuilder(name, inputs=["arrived", "peer_ready"], outputs=["may_run"])
    builder.local("waiting", "previous_waiting")
    builder.synchronize("arrived", "peer_ready", "may_run", "waiting", "previous_waiting")
    builder.define("previous_waiting", signal("waiting").pre(False))
    builder.define(
        "waiting",
        (signal("arrived").or_(signal("previous_waiting"))).and_(signal("peer_ready").not_()),
    )
    builder.define("may_run", signal("previous_waiting").not_().or_(signal("peer_ready")))
    return builder.build()
