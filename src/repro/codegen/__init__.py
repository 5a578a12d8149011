"""Code generation (Sections 3.6 and 5).

* :mod:`repro.codegen.runtime` — simulation runtime: stream-based IO and the
  ``main``-style iterate loop of Section 3.6;
* :mod:`repro.codegen.sequential` — sequential code generation for
  endochronous (hierarchic) processes: the scheduled
  :class:`~repro.codegen.sequential.StepProgram`, the only codegen IR, and
  its printers — the exec-compiled Python step closure (IO and delay
  registers bound once per stream) and a C-like listing mirroring the
  paper's figures;
* :mod:`repro.codegen.interpreted` — the per-step-dispatch reference
  interpreter of the same program, the oracle the exec tier is benchmarked
  against;
* :mod:`repro.codegen.batch` — the vectorized fleet runtime: a numpy printer
  of the program whose lanes step thousands of independent deployment
  instances per call;
* :mod:`repro.codegen.controller` — the compositional scheme of Section 5.2:
  a synthesized controller that schedules separately compiled endochronous
  components and enforces the reported clock constraints by rendez-vous;
* :mod:`repro.codegen.concurrent` — the concurrent variant: one thread per
  component, rendez-vous implemented with barriers.
"""

from repro import _lazy_exports

_EXPORTS = {
    "EndOfStream": ".runtime",
    "StreamIO": ".runtime",
    "RecordingIO": ".runtime",
    "simulate": ".runtime",
    "CompiledProcess": ".sequential",
    "CodeGenerationError": ".sequential",
    "StepOp": ".sequential",
    "StepProgram": ".sequential",
    "build_step_program": ".sequential",
    "compile_process": ".sequential",
    "InterpretedProcess": ".interpreted",
    "compile_interpreted": ".interpreted",
    "BatchCompilationError": ".batch",
    "BatchOverflowError": ".batch",
    "BatchProgram": ".batch",
    "FleetResult": ".batch",
    "compile_batch": ".batch",
    "ClockConstraintSpec": ".controller",
    "ControlledComposition": ".controller",
    "synthesize_controller": ".controller",
    "ConcurrentComposition": ".concurrent",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "EndOfStream",
    "StreamIO",
    "RecordingIO",
    "simulate",
    "CompiledProcess",
    "CodeGenerationError",
    "StepOp",
    "StepProgram",
    "build_step_program",
    "compile_process",
    "InterpretedProcess",
    "compile_interpreted",
    "BatchCompilationError",
    "BatchOverflowError",
    "BatchProgram",
    "FleetResult",
    "compile_batch",
    "ClockConstraintSpec",
    "ControlledComposition",
    "synthesize_controller",
    "ConcurrentComposition",
]
