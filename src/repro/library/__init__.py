"""The processes used in the paper.

* :mod:`repro.library.basic` — ``filter``, ``merge``, the one-place ``buffer``
  (``flip`` | ``current``) of Sections 1-3;
* :mod:`repro.library.producer_consumer` — the producer / consumer / main
  processes of Section 5;
* :mod:`repro.library.ltta` — the loosely time-triggered architecture of
  Section 4.2 (writer, bus, reader);
* :mod:`repro.library.controllers` — Signal-level controller and scheduler
  processes in the spirit of Section 5.2.

The size-parameterized synthetic networks the benchmarks sweep over live in
:mod:`repro.gen.topologies`.
"""

from repro import _lazy_exports

_EXPORTS = {
    "filter_process": ".basic",
    "merge_process": ".basic",
    "buffer_process": ".basic",
    "buffer2_process": ".basic",
    "filter_merge_composition": ".basic",
    "producer_process": ".producer_consumer",
    "consumer_process": ".producer_consumer",
    "main_process": ".producer_consumer",
    "main2_process": ".producer_consumer",
    "writer_process": ".ltta",
    "bus_process": ".ltta",
    "reader_process": ".ltta",
    "ltta_process": ".ltta",
    "rendezvous_controller_process": ".controllers",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "filter_process",
    "merge_process",
    "buffer_process",
    "buffer2_process",
    "filter_merge_composition",
    "producer_process",
    "consumer_process",
    "main_process",
    "main2_process",
    "writer_process",
    "bus_process",
    "reader_process",
    "ltta_process",
    "rendezvous_controller_process",
]
