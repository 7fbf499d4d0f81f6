"""High-level compile/run API shared by the CLI and the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import interp
from .cin import (
    Access,
    Assign,
    Forall,
    Mod,
    Proto,
    Stmt,
    annotate_extents,
    results,
    written_tensors,
)
from .expr import Var, walk
from .interp import Buf, ExecCounters
from .lower import LowerCtx, lower_program
from .oracle import DenseData, evaluate as oracle_evaluate
from .parser import parse
from .rewrite import Ruleset
from .storage import Tensor, _infer_dtype, check_payload, from_dense, tensor_buffers, to_dense
from .target import TargetStmt, print_ir
from .unfurl import BoundTensor, CompileError, WriterPlan
from .values import Value
from .writers import Writer


@dataclass
class InputSpec:
    dims: List[int]
    data: list
    format: List[str] = field(default_factory=lambda: ["dense"])
    fill: Value = 0.0
    dtype: Optional[str] = None
    protocols: Dict[int, str] = field(default_factory=dict)


@dataclass
class OutputSpec:
    dims: Optional[List[int]] = None  # None: inferred from the kernel extents
    format: List[str] = field(default_factory=lambda: ["dense"])
    fill: Value = 0.0
    dtype: str = "float"


@dataclass
class Compiled:
    program: TargetStmt
    tensors: Dict[str, BoundTensor]
    writers: Dict[str, WriterPlan]
    stages: Optional[List[str]] = None

    def ir_text(self) -> str:
        return print_ir(self.program)


def _infer_output_dims(annotated: Stmt, name: str) -> List[int]:
    """Output dims are the lengths of the extents, as `annotate_extents` filled
    them in, of the loops that index the output (index names are unique)."""
    nodes = list(walk(annotated))
    exts = {n.idx: n.ext for n in nodes if isinstance(n, Forall) and n.ext is not None}
    ext_of: Dict[int, int] = {}
    for n in nodes:
        if isinstance(n, Assign) and n.lhs.base == name:
            for k, use in enumerate(n.lhs.idx):
                while isinstance(use, (Mod, Proto)):
                    use = use.inner
                ext = exts.get(use.name) if isinstance(use, Var) else None
                lohi = ext and ext.const_bounds()
                if lohi:
                    ext_of.setdefault(k, lohi[1] - lohi[0] + 1)
    rank = max((len(n.idx) for n in nodes if isinstance(n, Access) and n.base == name), default=0)
    dims = []
    for k in range(rank):
        if k not in ext_of:
            raise CompileError(
                f"cannot infer dimension {k + 1} of output {name!r}; bind it explicitly")
        dims.append(ext_of[k])
    return dims


def _format(fmt: List[str], rank: int) -> List[str]:
    """A spec's level kinds, with the shorthand ["dense"] for all-dense."""
    return ["dense"] * rank if fmt == ["dense"] else fmt


def bind(stmt: Stmt, inputs: Dict[str, InputSpec], outputs: Dict[str, OutputSpec],
         params: Optional[Dict[str, Value]] = None):
    """Build the compile-time tensor table: inputs get static storage, outputs
    get writer plans; rank-0 intermediates are bound automatically."""
    tensors: Dict[str, BoundTensor] = {}
    for name, spec in inputs.items():
        t = from_dense(name, spec.dims, spec.data, _format(spec.format, len(spec.dims)),
                       spec.fill, spec.dtype)
        tensors[name] = BoundTensor(
            name=name, dims=list(spec.dims), fill=t.fill, dtype=t.dtype,
            kinds=t.format_spec(), tensor=t, protocols=dict(spec.protocols))
    out, writers = _bind_outputs(stmt, inputs, outputs)
    tensors.update(out)
    return tensors, writers


def _bind_outputs(stmt: Stmt, inputs: Dict[str, InputSpec], outputs: Dict[str, OutputSpec]):
    """BoundTensors and writer plans of the outputs, and of the tensors the
    kernel writes that are bound neither way."""
    tensors: Dict[str, BoundTensor] = {}
    writers: Dict[str, WriterPlan] = {}
    outputs = dict(outputs)
    for name in set(written_tensors(stmt)) | set(results(stmt)):
        if name not in outputs and name not in inputs:
            outputs[name] = OutputSpec()  # auto-bound intermediate / output

    input_dims = {n: s.dims for n, s in inputs.items()}
    for name, spec in outputs.items():
        if name in inputs:
            raise CompileError(f"tensor {name!r} bound as both input and output")
        dims = spec.dims
        if dims is None:
            dims = _infer_output_dims(annotate_extents(stmt, input_dims, strict=False), name)
        plan = WriterPlan(name, list(dims), spec.fill, spec.dtype, _format(spec.format, len(dims)))
        writers[name] = plan
        tensors[name] = BoundTensor(
            name=name, dims=list(dims), fill=spec.fill, dtype=spec.dtype,
            kinds=plan.kinds, tensor=None, is_output=True)
    return tensors, writers


def compile_kernel(stmt: Stmt, inputs: Dict[str, InputSpec],
                   outputs: Optional[Dict[str, OutputSpec]] = None,
                   params: Optional[Dict[str, Value]] = None,
                   ruleset: Optional[Ruleset] = None,
                   stages: bool = False) -> Compiled:
    tensors, writers = bind(stmt, inputs, outputs or {}, params)
    ctx = LowerCtx(tensors, writers, ruleset=ruleset, collect_stages=stages)
    prog = lower_program(ctx, stmt)
    return Compiled(prog, tensors, writers, stages=ctx.stages)


@dataclass
class RunResult:
    outputs: Dict[str, Tensor]
    dense: Dict[str, list]
    counters: ExecCounters
    backend: str  # "interp" or "python": which backend ran the program


# Programs whose runtime buffers (inputs and outputs) hold at least this many
# stored entries run as generated Python; smaller ones are interpreted.
# Generating and compiling costs a fixed 1.5-10 ms per run (there is no
# cache); interpreting costs about 25-35 us per stored entry. Measured on a
# 2-vCPU x86-64 machine with CPython 3.11, the two meet at 100-350 entries
# (splist dot ~150, spmspv dense.splist x splist walk ~250 and gallop ~300,
# dense blend under 200); at 1024 the generated code is 3.5-15x faster, and
# every job of the benchmark's corpus sweep (at most 108 entries) stays
# interpreted.
CODEGEN_MIN_ENTRIES = 1024


@dataclass
class Execution:
    """What one run of a program counted, and which backend ran it."""

    counters: ExecCounters
    backend: str


def run_program(prog: TargetStmt, buffers: Dict[str, Buf], params: Optional[dict] = None,
                writers: Optional[dict] = None) -> Execution:
    """Run a target program on the backend its size calls for.

    Both backends leave the same buffers and writers and count the same
    `ExecCounters`; the interpreter is the reference for both."""
    if sum(len(b) for b in buffers.values()) >= CODEGEN_MIN_ENTRIES:
        from . import codegen  # loaded on first use: small programs never need it

        return Execution(codegen.run_program(prog, buffers, params, writers), "python")
    machine = interp.run_program(prog, buffers, params=params, writers=writers)
    return Execution(machine.counters, "interp")


def runtime(compiled: Compiled) -> Tuple[Dict[str, Buf], Dict[str, Writer]]:
    """Fresh runtime buffers (inputs' storage and writers' buffers) and writers."""
    buffers: Dict[str, Buf] = {}
    for bt in compiled.tensors.values():
        if bt.tensor is not None:
            buffers.update(tensor_buffers(bt.tensor))
    writers: Dict[str, Writer] = {}
    for name, plan in compiled.writers.items():
        writers[name] = plan.writer(plan)
        buffers.update(writers[name].buffers)
    return buffers, writers


def execute(compiled: Compiled, params: Optional[Dict[str, Value]] = None) -> RunResult:
    buffers, writers = runtime(compiled)
    mparams = {f"${k}": v for k, v in (params or {}).items()}
    run = run_program(compiled.program, buffers, params=mparams, writers=writers)
    outs = {name: w.freeze() for name, w in writers.items()}
    dense = {name: to_dense(t) for name, t in outs.items()}
    return RunResult(outs, dense, run.counters, run.backend)


def run_kernel(text_or_stmt, inputs: Dict[str, InputSpec],
               outputs: Optional[Dict[str, OutputSpec]] = None,
               params: Optional[Dict[str, Value]] = None,
               ruleset: Optional[Ruleset] = None) -> RunResult:
    stmt = parse(text_or_stmt) if isinstance(text_or_stmt, str) else text_or_stmt
    compiled = compile_kernel(stmt, inputs, outputs, params, ruleset)
    return execute(compiled, params)


def oracle_outputs(text_or_stmt, inputs: Dict[str, InputSpec],
                   outputs: Optional[Dict[str, OutputSpec]] = None,
                   params: Optional[Dict[str, Value]] = None) -> Dict[str, list]:
    """Dense-oracle evaluation with the same binding conventions as execute.

    Inputs are read as given, not assembled into their formats: the payload
    passes the checks `from_dense` makes, and a dtype the spec leaves out is
    inferred as `from_dense` infers it."""
    stmt = parse(text_or_stmt) if isinstance(text_or_stmt, str) else text_or_stmt
    dd: Dict[str, DenseData] = {}
    for name, spec in inputs.items():
        check_payload(spec.dims, spec.data)
        dtype = spec.dtype or _infer_dtype(set(map(type, spec.data)), spec.fill)
        dd[name] = DenseData(list(spec.dims), spec.data, spec.fill, dtype)
    tensors, writers = _bind_outputs(stmt, inputs, outputs or {})
    for name, bt in tensors.items():
        dd[name] = DenseData(bt.dims, [bt.fill] * math.prod(bt.dims), bt.fill, bt.dtype)
    outs = oracle_evaluate(stmt, dd, params or {})
    return {name: outs[name] for name in writers if name in outs}
