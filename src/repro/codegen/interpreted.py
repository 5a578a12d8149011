"""The per-step-dispatch execution tier, the reference for the exec tier.

:class:`InterpretedProcess` (``runtime="interpreter"``) walks the
:class:`~repro.codegen.sequential.StepProgram` with one dispatch per
operation, evaluating pre-compiled expression code objects against a
per-step environment.  It is the measured baseline of the exec-compiled
:class:`~repro.codegen.sequential.CompiledProcess`
(``benchmarks/bench_deploy.py``) and a second oracle for the differential
suite: both execute the *same* scheduled ops, so they produce byte-identical
flows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.codegen.runtime import EndOfStream, StreamIO
from repro.codegen.sequential import (
    CodeGenerationError,
    StepProgram,
    build_step_program,
    python_expr,
)
from repro.lang.normalize import NormalizedProcess
from repro.properties.compilable import ProcessAnalysis


class InterpretedProcess:
    """The per-step-dispatch execution tier: one dispatch per scheduled op.

    Walks the :class:`StepProgram` with pre-compiled expression code objects,
    looking values up in a per-step environment dict — the dynamic baseline
    that the exec-compiled tier eliminates.
    """

    def __init__(self, program: StepProgram):
        self.program = program
        self.process: NormalizedProcess = program.process
        self.initial_state: Dict[str, object] = dict(program.initial_state)
        self.master_clock_inputs: List[str] = list(program.master_clock_inputs)
        self.state: Dict[str, object] = dict(self.initial_state)
        self._globals: Dict[str, object] = {}
        compiled_ops: List[tuple] = []
        for op in program.ops:
            presence = f"p_{op.target}"
            value = f"v_{op.target}"
            if op.kind == "master_read":
                compiled_ops.append(("master_read", op.target, value))
            elif op.kind == "presence":
                code = compile(python_expr(op.expr), f"<presence {op.target}>", "eval")
                compiled_ops.append(("presence", presence, code))
            elif op.kind == "read":
                compiled_ops.append(("read", op.target, presence, value))
            elif op.kind == "delay":
                compiled_ops.append(("delay", value, presence, op.register))
            elif op.kind == "compute":
                code = compile(python_expr(op.expr), f"<compute {op.target}>", "eval")
                compiled_ops.append(("compute", value, presence, code))
            elif op.kind == "write":
                compiled_ops.append(("write", op.target, presence, value))
            elif op.kind == "update":
                compiled_ops.append(("update", op.register, f"p_{op.source}", f"v_{op.source}"))
            else:  # pragma: no cover - exhaustive over StepOp kinds
                raise CodeGenerationError(f"unknown step op kind {op.kind!r}")
        self._ops: Tuple[tuple, ...] = tuple(compiled_ops)

    def reset(self) -> None:
        self.state = dict(self.initial_state)

    def step(self, io: StreamIO) -> bool:
        env: Dict[str, object] = {}
        env_globals = self._globals
        state = self.state
        for op in self._ops:
            kind = op[0]
            if kind == "presence":
                env[op[1]] = eval(op[2], env_globals, env)
            elif kind == "compute":
                if env[op[2]]:
                    env[op[1]] = eval(op[3], env_globals, env)
            elif kind == "read":
                if env[op[2]]:
                    try:
                        env[op[3]] = io.read(op[1])
                    except EndOfStream:
                        return False
            elif kind == "delay":
                if env[op[2]]:
                    env[op[1]] = state[op[3]]
            elif kind == "write":
                if env[op[2]]:
                    io.write(op[1], env[op[3]])
            elif kind == "update":
                if env[op[2]]:
                    state[op[1]] = env[op[3]]
            else:  # master_read
                try:
                    env[op[2]] = io.read(op[1])
                except EndOfStream:
                    return False
        return True

    def run(self, io: StreamIO, max_steps: int = 1_000_000) -> int:
        steps = 0
        while steps < max_steps and self.step(io):
            steps += 1
        return steps

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self.process.inputs) + tuple(self.master_clock_inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self.process.outputs)


def compile_interpreted(
    process: Union[NormalizedProcess, ProcessAnalysis],
    master_clocks: bool = False,
    check_compilable: bool = True,
) -> InterpretedProcess:
    """Build the per-step-dispatch tier for a process."""
    program = build_step_program(process, master_clocks, check_compilable)
    return InterpretedProcess(program)
