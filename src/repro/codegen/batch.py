"""Vectorized batch execution: step thousands of deployment instances per call.

A deployed controller is rarely alone — the fleet scenario runs the *same*
generated step function over thousands of independent input streams.  This
module compiles a :class:`~repro.codegen.sequential.StepProgram` into a
numpy kernel whose variables are arrays with one lane per instance: a
presence variable becomes a boolean mask, a value variable a ``bool_`` or
``int64`` array, an input stream a padded ``(instances, width)`` matrix with
per-lane cursors, and one global iteration advances every live lane by one
reaction: a vectorized fast path over the boolean/numeric fragment, with the
scalar tier as the exact fallback.

Semantics are *lane-identical* to scalar stepping:

* A lane whose input stream runs dry mid-step dies exactly like the scalar
  ``EndOfStream``: earlier reads of that step are consumed, later reads,
  writes and register updates are suppressed, and the step is not counted.
* Register updates preserve the pre-step view that delay (``pre``) readers
  alias: an update mutates its store in place only when a conflict analysis
  proves no later update still reads it through a delay alias, and rebinds
  to a fresh array (``np.where``) otherwise — so chained ``pre`` equations
  see pre-step values, as in the generated sequential code.
* Numeric lanes run in ``int64``.  The vectorizable fragment excludes ``*``
  and ``/`` (see ``_NUMPY_OPERATORS``), so magnitudes grow at most by one
  addition per operation; a periodic register check keeps every lane below
  a chain-depth-scaled bound under which no int64 wrap is possible between
  checks, and the run aborts with :class:`BatchOverflowError` *before* a
  lane can wrap, letting the caller redo the batch on the scalar tier.

Designs outside the fragment (``any``-typed signals, excluded operators,
oversized constants) raise :class:`BatchCompilationError` at compile time;
individual instances outside it (non-``bool``/``int`` stream values,
magnitudes beyond ``2**31``) are detected per lane by
:meth:`BatchProgram.lane_vectorizable` so the deployment layer can route
just those lanes to the scalar fallback.
"""

from __future__ import annotations

import functools
import marshal
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.lang.ast import Const
from repro.lang.normalize import NormalizedProcess
from repro.codegen.sequential import (
    ALWAYS,
    NEVER,
    Apply,
    Expr,
    Ref,
    Select,
    StepOp,
    StepProgram,
    build_step_program,
)
from repro.properties.compilable import ProcessAnalysis

#: per-lane bound on input-stream and initial-register magnitudes
LANE_LIMIT = 2**31
#: mid-run growth bound on registers: far enough below int64 that the kernel
#: can run many steps between checks without any intermediate wrapping
GUARD_LIMIT = 2**47

# numpy-elementwise renderings of the scalar operators.  ``None`` marks an
# operator outside the vectorizable fragment: ``*`` and ``/`` are excluded so
# the int64 lanes grow at most additively per step, which makes the overflow
# guard sound (see ``_grows``).
_NUMPY_OPERATORS = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": None,
    "/": None,
    "and": "({0} & {1})",
    "or": "({0} | {1})",
    "xor": "({0} != {1})",
    "=": "({0} == {1})",
    "/=": "({0} != {1})",
    "<": "({0} < {1})",
    "<=": "({0} <= {1})",
    ">": "({0} > {1})",
    ">=": "({0} >= {1})",
    "and not": "({0} & ~{1})",
}

_NUMPY_UNARY = {
    "not": "(~{0})",
    "-": "(-{0})",
    "id": "{0}",
}


class BatchCompilationError(Exception):
    """The design falls outside the vectorizable fragment."""


class BatchOverflowError(Exception):
    """A numeric lane approached the int64 range; redo the batch scalar."""


@dataclass
class FleetResult:
    """The outcome of running a batch of independent deployment instances."""

    outputs: List[Dict[str, List[object]]]
    steps: List[int]
    vectorized: int
    fallback: int

    @property
    def instances(self) -> int:
        return len(self.outputs)


@functools.lru_cache(maxsize=None)
def _numpy():
    """numpy, which backs the vectorized path, or ``None`` without it.

    Imported by the first batched compile rather than with the module, so
    ``import repro`` (and the service CLI) does not pay for loading numpy.
    """
    try:
        import numpy
    except Exception:  # pragma: no cover - numpy is part of the toolchain
        return None
    return numpy


def numpy_available() -> bool:
    """Whether numpy imports; without it every lane falls back to scalar."""
    return _numpy() is not None


def numpy_expr(expr: Expr, presence: bool = False) -> Optional[str]:
    """The elementwise rendering of an expression; ``None`` outside the fragment.

    In a ``presence`` expression the constant clocks are the all-lanes masks
    ``_ones`` / ``_zeros``; elsewhere constants broadcast as scalars.
    """
    if isinstance(expr, Ref):
        return f"{expr.kind}_{expr.name}"
    if isinstance(expr, Const):
        if presence:
            return "_ones" if expr.value else "_zeros"
        return repr(expr.value)
    if isinstance(expr, Select):
        operands = (expr.condition, expr.then, expr.otherwise)
        return f"_where({', '.join(map(numpy_expr, operands))})"
    table = _NUMPY_UNARY if len(expr.args) == 1 else _NUMPY_OPERATORS
    template = table.get(expr.operator)
    args = [numpy_expr(arg, presence) for arg in expr.args]
    if template is None or None in args:
        return None
    return template.format(*args)


def _grows(op: StepOp) -> bool:
    """A numeric computation whose magnitude can grow (``+`` / ``-``)."""
    return isinstance(op.expr, Apply) and op.expr.operator in ("+", "-")


def _signal_dtypes(program: StepProgram) -> Dict[str, str]:
    """Map every signal to ``"bool"``/``"num"``; raise outside the fragment."""
    types = program.types
    dtypes: Dict[str, str] = {}
    for name in program.process.all_signals():
        kind = types.get(name, "any")
        if kind not in ("bool", "num"):
            raise BatchCompilationError(
                f"signal {name!r} has inferred type {kind!r}; the batch runtime "
                "vectorizes only the bool/int64 fragment"
            )
        dtypes[name] = kind
    for master in program.master_clock_inputs:
        dtypes[master] = "bool"
    return dtypes


def _check_fragment(program: StepProgram, dtypes: Mapping[str, str]) -> None:
    for op in program.ops:
        if op.expr is not None and numpy_expr(op.expr, op.kind == "presence") is None:
            raise BatchCompilationError(
                f"operation on {op.target!r} has no elementwise rendering "
                "(operator outside the vectorizable fragment)"
            )
    for equation in program.process.equations:
        for operand in getattr(equation, "operands", ()) or ():
            _check_constant(operand)
        _check_constant(getattr(equation, "source", None))
    for name, value in program.initial_state.items():
        kind = dtypes.get(name, "any")
        if kind == "bool":
            if type(value) is not bool:
                raise BatchCompilationError(
                    f"initial value of register {name!r} is not a bool: {value!r}"
                )
        elif type(value) is not int or abs(value) > LANE_LIMIT:
            raise BatchCompilationError(
                f"initial value of register {name!r} is outside the int64 lane "
                f"fragment: {value!r}"
            )


def _check_constant(operand: object) -> None:
    if not isinstance(operand, Const):
        return
    value = operand.value
    if type(value) is bool:
        return
    if type(value) is not int or abs(value) > LANE_LIMIT:
        raise BatchCompilationError(
            f"constant {value!r} is outside the int64 lane fragment"
        )


def render_batch_source(program: StepProgram, dtypes: Mapping[str, str]) -> str:
    """The Python source of the vectorized fleet kernel for one program.

    The generated kernel is tuned for moderate lane counts (~1k), where ufunc
    dispatch overhead dominates: identical presence expressions and sink masks
    are computed once per step, gathers go through flat ``take``-style
    indexing, register updates mutate in place unless a later update still
    reads the register through a delay alias, emitted outputs land in
    preallocated per-step matrices, and the overflow invariant is sampled
    every ``_GK`` steps instead of per operation (see :class:`BatchProgram`
    for the bound).
    """
    name = program.process.name
    registers = sorted(program.initial_state)
    outputs = list(program.outputs)
    ops = program.ops
    presence_of: Dict[str, Expr] = {
        op.target: op.expr for op in ops if op.kind == "presence"
    }
    delay_register: Dict[str, str] = {
        op.target: op.register for op in ops if op.kind == "delay"
    }
    # reverse scan: an update may mutate its register in place (copyto) unless
    # a later update still reads the pre-step value through a delay alias, in
    # which case it must rebind to a fresh array (np.where) instead
    update_ops = [op for op in ops if op.kind == "update"]
    rebind: set = set()
    later_delay_sources: set = set()
    for op in reversed(update_ops):
        if op.register in later_delay_sources:
            rebind.add(op.register)
        aliased = delay_register.get(op.source or "")
        if aliased is not None:
            later_delay_sources.add(aliased)
    guarded = sum(map(_grows, ops))
    numeric_registers = [r for r in registers if dtypes[r] == "num"]
    always_reads = [
        op.target
        for op in ops
        if op.kind == "master_read"
        or (op.kind == "read" and presence_of.get(op.target) == ALWAYS)
    ]

    lines: List[str] = [f"def {name}_batch(_streams, _n, _max_steps):"]
    body: List[str] = [
        "_alive = _np.ones(_n, _np.bool_)",
        "_ones = _np.ones(_n, _np.bool_)",
        "_zeros = _np.zeros(_n, _np.bool_)",
        "_steps = _np.zeros(_n, _np.int64)",
    ]
    for signal in program.inputs:
        body.extend(
            [
                f"_d_{signal}, _l_{signal} = _streams[{signal!r}]",
                f"_c_{signal} = _np.zeros(_n, _np.int64)",
                f"_wm_{signal} = _d_{signal}.shape[1] - 1",
                f"_f_{signal} = _d_{signal}.ravel()",
                f"_o_{signal} = _np.arange(_n) * _d_{signal}.shape[1]",
            ]
        )
    # Non-rebind registers live as rows of one matrix per dtype: updates
    # mutate the rows in place through the `st_*` views, so the overflow
    # guard is a single contiguous reduction instead of a stack of copies.
    matrix_numeric = [
        r for r in numeric_registers if r not in rebind
    ]
    matrix_bool = [
        r for r in registers if dtypes[r] == "bool" and r not in rebind
    ]
    for rows, matrix, dtype in (
        (matrix_numeric, "_stn", "_np.int64"),
        (matrix_bool, "_stb", "_np.bool_"),
    ):
        if not rows:
            continue
        body.append(f"{matrix} = _np.empty(({len(rows)}, _n), {dtype})")
        for index, register in enumerate(rows):
            body.append(f"{matrix}[{index}] = {program.initial_state[register]!r}")
            body.append(f"st_{register} = {matrix}[{index}]")
    for register in sorted(rebind):
        dtype = "_np.bool_" if dtypes[register] == "bool" else "_np.int64"
        initial = repr(program.initial_state[register])
        body.append(f"st_{register} = _np.full(_n, {initial}, {dtype})")
    for signal in sorted(program.process.all_signals()):
        dtype = "_np.bool_" if dtypes[signal] == "bool" else "_np.int64"
        body.append(f"v_{signal} = _np.zeros(_n, {dtype})")
    # an always-firing read caps the run at the longest stream + 1 steps, so
    # the emit matrices can usually be sized once; otherwise start small and
    # double on demand inside the loop
    if always_reads:
        body.append(
            f"_cap = min(_max_steps, int(_l_{always_reads[0]}.max()) + 1 if _n else 1)"
        )
    else:
        body.append("_cap = min(_max_steps, 64)")
    for output in outputs:
        dtype = "_np.bool_" if dtypes[output] == "bool" else "_np.int64"
        body.extend(
            [
                f"_wq_{output} = _np.zeros((_cap, _n), _np.bool_)",
                f"_wv_{output} = _np.zeros((_cap, _n), {dtype})",
            ]
        )
    body.append("_t = 0")
    body.append("while _t < _max_steps and _alive.any():")
    step: List[str] = []
    if outputs:
        step.extend(
            [
                "if _t == _cap:",
                "    _more = max(_cap, 1)",
                "    if _cap + _more > _max_steps:",
                "        _more = _max_steps - _cap",
            ]
        )
        for output in outputs:
            step.extend(
                [
                    f"    _wq_{output} = _np.concatenate((_wq_{output}, _np.zeros((_more, _n), _wq_{output}.dtype)))",
                    f"    _wv_{output} = _np.concatenate((_wv_{output}, _np.zeros((_more, _n), _wv_{output}.dtype)))",
                ]
            )
        step.append("    _cap += _more")
    # Within one step every presence/value variable is assigned exactly once
    # (the program is scheduled SSA per reaction), so identical presence
    # expressions can share one computation — designs whose signals share a
    # clock collapse to a single mask per clock class.
    presence_canonical: Dict[Ref, Expr] = {}
    presence_cache: Dict[Expr, Ref] = {}
    # Writes and updates all run after the last read of the step, so `_alive`
    # is stable there and their `p & _alive` masks can be shared as well.
    mask_cache: Dict[Expr, str] = {}
    saturated_cache: Dict[str, str] = {}

    def _presence(target: str) -> Expr:
        return presence_canonical.get(Ref("p", target), Ref("p", target))

    def _sink_mask(presence: Expr) -> str:
        if presence == ALWAYS:
            return "_alive"
        if presence == NEVER:
            return "_zeros"
        cached = mask_cache.get(presence)
        if cached is not None:
            return cached
        mask = f"_m{len(mask_cache)}"
        mask_cache[presence] = mask
        step.append(f"{mask} = {numpy_expr(presence)} & _alive")
        return mask

    def _saturated(mask: str) -> str:
        # one `.all()` per distinct mask lets every update on that mask drop
        # its `where=` when the whole fleet fires (the common steady state)
        cached = saturated_cache.get(mask)
        if cached is not None:
            return cached
        flag = f"_a{len(saturated_cache)}"
        saturated_cache[mask] = flag
        step.append(f"{flag} = {mask}.all()")
        return flag

    for op in ops:
        if op.kind in ("master_read", "read"):
            target = op.target
            gather = f"v_{target} = _f_{target}[_np.minimum(_c_{target}, _wm_{target}) + _o_{target}]"
            # a read whose presence is the root activation (or a master read)
            # fires on every live lane: the miss set is exactly the lanes whose
            # stream ran dry, so the template collapses to an in-place cull
            if op.kind == "master_read" or presence_of.get(target) == ALWAYS:
                step.extend(
                    [
                        f"_alive &= _c_{target} < _l_{target}",
                        gather,
                        f"_c_{target} += _alive",
                    ]
                )
            else:
                step.extend(
                    [
                        f"_need = p_{target} & _alive",
                        f"_ok = _c_{target} < _l_{target}",
                        "_alive &= _ok | ~_need",
                        "_need &= _ok",
                        gather,
                        f"_c_{target} += _need",
                    ]
                )
        elif op.kind == "presence":
            expr = op.expr
            target = Ref("p", op.target)
            printed = numpy_expr(expr, presence=True)
            if isinstance(expr, Const) or (isinstance(expr, Ref) and expr.kind == "p"):
                # a constant clock or a bare alias of another presence
                # variable: record the root so every sink sharing this clock
                # class shares one mask
                presence_canonical[target] = presence_canonical.get(expr, expr)
            elif expr in presence_cache:
                shared = presence_cache[expr]
                presence_canonical[target] = presence_canonical.get(shared, shared)
                printed = f"p_{shared.name}"
            else:
                presence_cache[expr] = target
            step.append(f"p_{op.target} = {printed}")
        elif op.kind == "delay":
            # plain alias: the pre-step view survives because any update that
            # a later delay reader depends on rebinds instead of mutating
            step.append(f"v_{op.target} = st_{op.register}")
        elif op.kind == "compute":
            step.append(f"v_{op.target} = {numpy_expr(op.expr)}")
        elif op.kind == "write":
            mask = _sink_mask(_presence(op.target))
            step.extend(
                [
                    f"_wq_{op.target}[_t] = {mask}",
                    f"_wv_{op.target}[_t] = v_{op.target}",
                ]
            )
        elif op.kind == "update":
            presence = _presence(op.source or "")
            if presence == NEVER:
                continue  # this clock never fires: the register keeps its value
            mask = _sink_mask(presence)
            if op.register in rebind:
                step.append(
                    f"st_{op.register} = _np.where({mask}, v_{op.source}, st_{op.register})"
                )
            else:
                flag = _saturated(mask)
                step.extend(
                    [
                        f"if {flag}:",
                        f"    _np.copyto(st_{op.register}, v_{op.source})",
                        "else:",
                        f"    _np.copyto(st_{op.register}, v_{op.source}, where={mask})",
                    ]
                )
        else:  # pragma: no cover - exhaustive over StepOp kinds
            raise BatchCompilationError(f"unknown step op kind {op.kind!r}")
    if guarded and numeric_registers:
        # sampled invariant check: registers are the only cross-step carriers,
        # and below _GUARD no chain of +/- ops can wrap int64 within _GK steps
        # (the bound is computed in BatchProgram), so checking every _GK steps
        # is as sound as guarding every operation; the matrix layout makes it
        # one contiguous reduction
        terms = []
        if matrix_numeric:
            terms.append("_np.abs(_stn).max() > _GUARD")
        for register in sorted(set(numeric_registers) & rebind):
            terms.append(f"_np.abs(st_{register}).max() > _GUARD")
        step.append("if _t % _GK == 0:")
        step.append(f"    if {' or '.join(terms)}:")
        step.append("        raise _Overflow()")
    step.extend(["_steps += _alive", "_t += 1"])
    body.extend(f"    {line}" for line in step)
    emits = ", ".join(
        f"{output!r}: (_wq_{output}, _wv_{output})" for output in outputs
    )
    body.append(f"return _steps, _t, {{{emits}}}")
    lines.extend(f"    {line}" for line in body)
    return "\n".join(lines) + "\n"


# ``marshal.dumps`` writes a plain list as a 5-byte header (the type code
# ``[``, with the reference flag 0x80 possibly set, then a 4-byte length)
# followed by its elements' encodings.  ``True`` and ``False`` encode as the
# single bytes ``T`` and ``F``; every other object takes at least one byte
# and never encodes as ``T`` or ``F`` alone.
_MARSHAL_LIST_HEADER = 5
_MARSHAL_LIST = ord("[")
_MARSHAL_TRUE = ord("T")
_MARSHAL_FALSE = ord("F")


def _marshal_or_empty(lane: Sequence[object]) -> bytes:
    try:
        return marshal.dumps(lane)
    except ValueError:  # an unmarshallable element, e.g. a numpy scalar
        return b""


def _stage_bool_stream(
    lanes: Sequence[Sequence[object]], sizes: Sequence[int], width: int
) -> Optional[object]:
    """One boolean input stream as a ``(lanes, width)`` ``bool_`` matrix,
    each row zero-padded past its lane's length; ``None`` if some lane
    holds an element that is not a genuine ``bool``.

    A lane whose ``marshal`` bytes are a list header plus exactly one ``T``
    or ``F`` byte per element is a plain list of genuine bools, so one
    ``marshal`` pass and a few vector operations over all lanes' bytes
    both type-check and stage such lanes.  Any other lane (a tuple, ints,
    ``None``, a numpy scalar) is type-scanned and staged on its own.
    """
    _np = _numpy()
    n = len(lanes)
    blobs = list(map(_marshal_or_empty, lanes))
    fast = [
        size > 0
        and len(blob) == _MARSHAL_LIST_HEADER + size
        and blob[0] & 0x7F == _MARSHAL_LIST
        for blob, size in zip(blobs, sizes)
    ]
    codes = _np.frombuffer(
        b"".join(
            [memoryview(blob)[_MARSHAL_LIST_HEADER:] for blob, ok in zip(blobs, fast) if ok]
        ),
        _np.uint8,
    )
    values = codes == _MARSHAL_TRUE
    stray = ~values & (codes != _MARSHAL_FALSE)
    lengths = _np.array(sizes, _np.int64)
    fast_rows = _np.array(fast, _np.bool_)
    if stray.any():
        # a one-byte element other than a bool (``None``, ``...``): that
        # lane goes the per-lane way
        body_sizes = lengths[fast_rows]
        spoiled = _np.add.reduceat(stray, _np.cumsum(body_sizes) - body_sizes) > 0
        values = values[~_np.repeat(spoiled, body_sizes)]
        fast_rows[_np.flatnonzero(fast_rows)[spoiled]] = False
    if values.size == n * width:
        data = values.reshape(n, width)  # rectangular, every lane a bool list
    else:
        data = _np.zeros((n, width), _np.bool_)
        # boolean-mask assignment fills row-major: the order of ``codes``
        data[fast_rows[:, None] & (_np.arange(width) < lengths[:, None])] = values
    for row in _np.flatnonzero(~fast_rows & (lengths > 0)).tolist():
        lane = lanes[row]
        if set(map(type, lane)) - {bool}:
            return None
        data[row, : sizes[row]] = lane
    return data


class BatchProgram:
    """An exec-compiled numpy kernel stepping many instances per iteration."""

    def __init__(self, program: StepProgram):
        _np = _numpy()
        if _np is None:
            raise BatchCompilationError("numpy is not available")
        self.program = program
        self.process: NormalizedProcess = program.process
        self.dtypes = _signal_dtypes(program)
        _check_fragment(program, self.dtypes)
        self.python_source = render_batch_source(program, self.dtypes)
        guarded = sum(map(_grows, program.ops))
        # Overflow invariant: with every register at most GUARD_LIMIT at a
        # check, one step grows magnitudes by at most a factor of
        # (guarded + 1), so after K unchecked steps they stay below
        # GUARD_LIMIT * (guarded + 1)**K — pick the largest K keeping that
        # product inside int64 and sample the check every K steps.
        self.guard_limit = GUARD_LIMIT
        interval = 1
        if guarded:
            growth = guarded + 1
            while (
                interval < 64
                and self.guard_limit * growth ** (interval + 1) <= 2**63 - 1
            ):
                interval += 1
        self.guard_interval = interval
        namespace: Dict[str, object] = {
            "_np": _np,
            "_where": _np.where,
            "_GUARD": self.guard_limit,
            "_GK": self.guard_interval,
            "_Overflow": BatchOverflowError,
        }
        exec(
            compile(
                self.python_source,
                f"<batch {program.process.name}_batch>",
                "exec",
            ),
            namespace,
        )
        self._kernel = namespace[f"{program.process.name}_batch"]

    @property
    def inputs(self) -> Tuple[str, ...]:
        return self.program.inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self.program.outputs

    # -- lane eligibility ---------------------------------------------------------------
    def lane_vectorizable(self, inputs: Mapping[str, Sequence[object]]) -> bool:
        """True when one instance's input streams fit the bool/int64 lanes."""
        for signal in self.program.inputs:
            values = inputs.get(signal, ())
            kinds = set(map(type, values))  # C-level scan; bool is not int here
            if self.dtypes.get(signal, "bool") == "bool":
                if kinds - {bool}:
                    return False
            else:
                if kinds - {int}:
                    return False
                if values and not -LANE_LIMIT <= min(values) <= max(values) <= LANE_LIMIT:
                    return False
        return True

    def stage_fleet(
        self, instances: Sequence[Mapping[str, Sequence[object]]]
    ) -> Optional[Dict[str, Tuple[object, object]]]:
        """Stage the whole fleet in one pass; ``None`` if any lane is ineligible.

        A lane is eligible exactly when :meth:`lane_vectorizable` accepts
        it: a boolean stream of numpy bools (an ``ndarray`` or a list of
        ``np.bool_``) is refused like one of ints, so such lanes run on the
        scalar tier, as numeric numpy streams already did.  Boolean streams
        are checked and staged together by :func:`_stage_bool_stream`,
        which reads a list of genuine bools from its ``marshal`` bytes in
        one C-level pass and type-scans only the lanes that are not such a
        list.  Numeric streams pass the
        int-type scan, then one conversion to an ``int64`` matrix and one
        vector reduction for the magnitude bound.
        """
        _np = _numpy()
        n = len(instances)
        streams: Dict[str, Tuple[object, object]] = {}
        for signal in self.program.inputs:
            kind = self.dtypes.get(signal, "bool")
            lanes = [instance.get(signal, ()) for instance in instances]
            if kind == "num":
                for lane in lanes:
                    if set(map(type, lane)) - {int}:
                        return None
            sizes = list(map(len, lanes))
            longest = max(sizes) if sizes else 0
            width = max(1, longest)
            lengths = _np.array(sizes, _np.int64)
            try:
                if kind == "bool":
                    data = _stage_bool_stream(lanes, sizes, width)
                    if data is None:
                        return None
                elif longest == width and min(sizes) == longest:
                    data = _np.array(lanes, _np.int64)
                else:
                    data = _np.zeros((n, width), _np.int64)
                    for row, lane in enumerate(lanes):
                        if sizes[row]:
                            data[row, : sizes[row]] = _np.array(lane)
            except (OverflowError, ValueError, TypeError):
                return None
            if kind == "num" and data.size and _np.abs(data).max() > LANE_LIMIT:
                return None
            streams[signal] = (data, lengths)
        return streams

    # -- execution ----------------------------------------------------------------------
    def run_many(
        self,
        instances: Sequence[Mapping[str, Sequence[object]]],
        max_steps: int = 1_000_000,
    ) -> Tuple[List[int], List[Dict[str, List[object]]]]:
        """Run every instance to stream exhaustion; returns (steps, outputs).

        Every lane must be one :meth:`lane_vectorizable` accepts; a fleet
        holding any other lane raises ``ValueError``.  Raises
        :class:`BatchOverflowError` when a numeric lane approaches the int64
        range — callers should then redo the batch on the scalar tier.
        """
        if not instances:
            return [], []
        staged = self.stage_fleet(instances)
        if staged is None:
            raise ValueError("a lane falls outside the bool/int64 fleet fragment")
        return self.run_staged(staged, len(instances), max_steps)

    def run_staged(
        self,
        streams: Mapping[str, Tuple[object, object]],
        n: int,
        max_steps: int = 1_000_000,
    ) -> Tuple[List[int], List[Dict[str, List[object]]]]:
        """Run a fleet already staged by :meth:`stage_fleet`."""
        _np = _numpy()
        steps_array, total_steps, emits = self._kernel(streams, n, max_steps)
        outputs: List[Dict[str, List[object]]] = [
            {output: [] for output in self.program.outputs} for _ in range(n)
        ]
        for output in self.program.outputs:
            fired, values = emits[output]
            fired = fired[:total_steps]
            if fired.all():
                # every lane emitted on every step: one nested tolist gives
                # each lane's list directly, with no per-lane slicing
                nested = values[:total_steps].T.tolist()
                for row in range(n):
                    outputs[row][output] = nested[row]
                continue
            if not fired.any():
                continue
            # transpose to lane-major: boolean indexing then walks each lane's
            # emissions in step order, giving one flat list sliced per lane
            flat = values[:total_steps].T[fired.T].tolist()
            offsets = _np.cumsum(fired.sum(axis=0)).tolist()
            start = 0
            for row in range(n):
                end = offsets[row]
                if end != start:
                    outputs[row][output] = flat[start:end]
                start = end
        return steps_array.tolist(), outputs


def compile_batch(
    process: Union[NormalizedProcess, ProcessAnalysis, StepProgram],
    master_clocks: bool = False,
    check_compilable: bool = True,
) -> BatchProgram:
    """Compile a process (or a prebuilt step program) to a fleet kernel."""
    if isinstance(process, StepProgram):
        return BatchProgram(process)
    program = build_step_program(process, master_clocks, check_compilable)
    return BatchProgram(program)
