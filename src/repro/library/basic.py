"""The basic processes of Sections 1-3: filter, merge and the one-place buffer.

Every constructor returns a :class:`~repro.lang.ast.ProcessDefinition`; use
:func:`repro.lang.normalize.normalize` (or :class:`repro.api.SignalProgram`)
to obtain the primitive-equation form consumed by the analyses.
"""

from __future__ import annotations

from typing import Dict

from repro.lang.ast import ProcessDefinition
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_false, when_true
from repro.lang.normalize import NormalizedProcess, normalize


def filter_process(
    name: str = "filter", input_name: str = "y", output_name: str = "x"
) -> ProcessDefinition:
    """The paper's filter: emit ``x = true`` every time the value of ``y`` changes.

    ``x = true when (y /= z) | z = y pre true`` with ``z`` local.
    """
    previous = f"{output_name}_prev"
    builder = ProcessBuilder(name, inputs=[input_name], outputs=[output_name])
    builder.local(previous)
    builder.define(
        output_name, const(True).when(signal(input_name).ne(signal(previous)))
    )
    builder.define(previous, signal(input_name).pre(True))
    return builder.build()


def merge_process(
    name: str = "merge",
    condition: str = "c",
    then_input: str = "y",
    else_input: str = "z",
    output_name: str = "d",
) -> ProcessDefinition:
    """The paper's merge: ``d`` equals ``if c then y else z``.

    The inputs are sampled on the two values of the condition
    (``y^ = [c]``, ``z^ = [¬c]``), which makes the process endochronous:
    its whole timing is reconstructed from the flow of ``c``.
    """
    negated = f"not_{condition}"
    builder = ProcessBuilder(name, inputs=[condition, then_input, else_input], outputs=[output_name])
    builder.local(negated)
    builder.define(negated, signal(condition).not_())
    builder.define(
        output_name,
        signal(then_input).when(signal(condition)).default(signal(else_input).when(signal(negated))),
    )
    builder.constrain(tick(then_input), when_true(condition))
    builder.constrain(tick(else_input), when_false(condition))
    return builder.build()


def buffer_process(
    name: str = "buffer", input_name: str = "y", output_name: str = "x", initial: object = False
) -> ProcessDefinition:
    """The one-place buffer of Section 3: ``buffer = current | flip``.

    The alternator ``flip`` (signals ``s``, ``t``) synchronizes the input to
    the false value of ``t`` and the output to its true value; ``current``
    (signals ``r``, ``m``) stores the last input and serves it on request:

    * ``s := t pre true``, ``t := not s``
    * ``y^ = [¬t]``, ``x^ = [t]``, ``r^ = t^``
    * ``r := y default (r pre initial)``, ``x := r when t``
    """
    builder = ProcessBuilder(name, inputs=[input_name], outputs=[output_name])
    state = f"{name}_s"
    toggle = f"{name}_t"
    register = f"{name}_r"
    memory = f"{name}_m"
    builder.local(state, toggle, register, memory)
    builder.define(state, signal(toggle).pre(True))
    builder.define(toggle, signal(state).not_())
    builder.constrain(tick(input_name), when_false(toggle))
    builder.define(memory, signal(register).pre(initial))
    builder.define(register, signal(input_name).default(signal(memory)))
    builder.constrain(tick(register), tick(toggle))
    builder.define(output_name, signal(register).when(signal(toggle)))
    return builder.build()


def buffer2_process(
    name: str = "buffer2",
    value_input: str = "y",
    flag_input: str = "b",
    value_output: str = "x",
    flag_output: str = "c",
    value_initial: object = 0,
    flag_initial: object = True,
) -> ProcessDefinition:
    """A one-place buffer carrying a (value, boolean flag) pair synchronously.

    Used by the LTTA bus, which forwards the writer's value together with its
    alternating flag.  Structure and clocks are those of :func:`buffer_process`,
    duplicated for the two payload signals.
    """
    builder = ProcessBuilder(
        name, inputs=[value_input, flag_input], outputs=[value_output, flag_output]
    )
    state = f"{name}_s"
    toggle = f"{name}_t"
    value_register = f"{name}_rv"
    value_memory = f"{name}_mv"
    flag_register = f"{name}_rf"
    flag_memory = f"{name}_mf"
    builder.local(state, toggle, value_register, value_memory, flag_register, flag_memory)
    builder.define(state, signal(toggle).pre(True))
    builder.define(toggle, signal(state).not_())
    builder.constrain(tick(value_input), when_false(toggle))
    builder.constrain(tick(flag_input), when_false(toggle))
    builder.define(value_memory, signal(value_register).pre(value_initial))
    builder.define(value_register, signal(value_input).default(signal(value_memory)))
    builder.constrain(tick(value_register), tick(toggle))
    builder.define(value_output, signal(value_register).when(signal(toggle)))
    builder.define(flag_memory, signal(flag_register).pre(flag_initial))
    builder.define(flag_register, signal(flag_input).default(signal(flag_memory)))
    builder.constrain(tick(flag_register), tick(toggle))
    builder.define(flag_output, signal(flag_register).when(signal(toggle)))
    return builder.build()


def filter_merge_composition(name: str = "filter_merge") -> Dict[str, NormalizedProcess]:
    """The Section 1 composition: ``x = filter(y) | d = merge(c, x, z)``.

    Returns the normalized filter, merge and composition, keyed by role; the
    filter's output feeds the ``then`` branch of the merge, as in the paper's
    example where the merged flow interleaves filtered events with ``z``.
    """
    filter_definition = filter_process(input_name="y", output_name="x")
    merge_definition = merge_process(condition="c", then_input="x", else_input="z", output_name="d")
    normalized_filter = normalize(filter_definition)
    normalized_merge = normalize(merge_definition)
    composition = normalized_filter.compose(normalized_merge, name=name)
    return {
        "filter": normalized_filter,
        "merge": normalized_merge,
        "composition": composition,
    }
