"""The loosely time-triggered architecture of Section 4.2.

The LTTA is composed of a writer, a bus and a reader, each paced by its own
clock.  The writer emits a value together with an alternating boolean flag;
the bus is two one-place buffers in sequence; the reader samples the value
whenever the flag it observes has changed (an alternating-bit protocol).
The LTTA is *not* endochronous (its hierarchy has several roots — one per
device) but it is isochronous because every device is endochronous and the
composition is well-clocked and acyclic.
"""

from __future__ import annotations

from typing import Dict

from repro.lang.ast import ProcessDefinition
from repro.lang.builder import ProcessBuilder, signal, tick, when_true
from repro.lang.normalize import NormalizedProcess, normalize
from repro.library.basic import buffer2_process, filter_process


def writer_process(name: str = "writer") -> ProcessDefinition:
    """``(yw, bw) = writer(xw, cw)``: emit the input with an alternating flag.

    * ``xw^ = bw^ = [cw]``
    * ``yw = xw``
    * ``bw = not (bw pre true)``
    """
    builder = ProcessBuilder(name, inputs=["xw", "cw"], outputs=["yw", "bw"])
    builder.constrain(tick("xw"), tick("bw"), when_true("cw"))
    builder.define("yw", signal("xw"))
    builder.define("bw", signal("bw").pre(True).not_())
    return builder.build()


def bus_process(name: str = "bus") -> ProcessDefinition:
    """``(yr, br) = bus(yw, bw)``: two one-place buffers in sequence.

    The paper passes an unused bus clock ``cb`` (the buffers are paced by
    their own local clocks); it is omitted here since an unconstrained unused
    input would only add a spurious hierarchy root.
    """
    builder = ProcessBuilder(name, inputs=["yw", "bw"], outputs=["yr", "br"])
    builder.local("yb", "bb")
    builder.instantiate("buffer2", [signal("yw"), signal("bw")], ["yb", "bb"])
    builder.instantiate("buffer2", [signal("yb"), signal("bb")], ["yr", "br"])
    return builder.build()


def reader_process(name: str = "reader") -> ProcessDefinition:
    """``xr = reader(yr, br, cr)``: sample ``yr`` whenever the flag ``br`` changed.

    * ``xr = yr when filter(br)``
    * ``yr^ = br^ = [cr]``
    """
    builder = ProcessBuilder(name, inputs=["yr", "br", "cr"], outputs=["xr"])
    builder.local("fr")
    builder.instantiate("filter", [signal("br")], ["fr"])
    builder.define("xr", signal("yr").when(signal("fr")))
    builder.constrain(tick("yr"), tick("br"), when_true("cr"))
    return builder.build()


def ltta_process(name: str = "ltta") -> ProcessDefinition:
    """``xr = ltta(xw, cw, cr)``: writer → bus → reader."""
    builder = ProcessBuilder(name, inputs=["xw", "cw", "cr"], outputs=["xr"])
    builder.local("yw", "bw", "yr", "br")
    builder.instantiate("writer", [signal("xw"), signal("cw")], ["yw", "bw"])
    builder.instantiate("bus", [signal("yw"), signal("bw")], ["yr", "br"])
    builder.instantiate("reader", [signal("yr"), signal("br"), signal("cr")], ["xr"])
    return builder.build()


def ltta_components() -> Dict[str, NormalizedProcess]:
    """The four endochronous components of the LTTA, as the paper decomposes it.

    The bus is split into its two one-place buffers (each endochronous); the
    hierarchy of the composition then has four single-rooted trees — writer,
    first buffer, second buffer, reader — connected by rendez-vous points,
    which is the situation depicted in the paper's LTTA hierarchy figure.
    """
    definitions = registry()
    first_buffer = buffer2_process(
        name="bus_stage1",
        value_input="yw",
        flag_input="bw",
        value_output="yb",
        flag_output="bb",
    )
    second_buffer = buffer2_process(
        name="bus_stage2",
        value_input="yb",
        flag_input="bb",
        value_output="yr",
        flag_output="br",
    )
    return {
        "writer": normalize(definitions["writer"], definitions),
        "bus_stage1": normalize(first_buffer, definitions),
        "bus_stage2": normalize(second_buffer, definitions),
        "reader": normalize(definitions["reader"], definitions),
    }


def registry() -> Dict[str, ProcessDefinition]:
    """The process registry needed to normalize the LTTA."""
    return {
        "filter": filter_process(),
        "buffer2": buffer2_process(),
        "writer": writer_process(),
        "bus": bus_process(),
        "reader": reader_process(),
    }


def normalized_suite() -> Dict[str, NormalizedProcess]:
    """Normalized writer, bus, reader and full LTTA (keyed by name)."""
    definitions = registry()
    return {
        "writer": normalize(definitions["writer"], definitions),
        "bus": normalize(definitions["bus"], definitions),
        "reader": normalize(definitions["reader"], definitions),
        "ltta": normalize(ltta_process(), definitions),
    }
