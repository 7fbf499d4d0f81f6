"""High-level compile/run API shared by the CLI and the test suite."""

from __future__ import annotations

import math
from collections import OrderedDict
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
    print_stmt,
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


class Lowered:
    """A lowered program, the facts of static payload lowering folded into it
    (see `ProgramCache`), and the code last generated for it (`codegen`),
    which lives as long as the program does."""

    __slots__ = ("program", "facts", "code")

    def __init__(self, program: TargetStmt, facts: tuple = ()):
        self.program, self.facts, self.code = program, facts, None


@dataclass
class Compiled:
    lowered: Lowered
    tensors: Dict[str, BoundTensor]
    writers: Dict[str, WriterPlan]
    stages: Optional[List[str]] = None
    lowering: str = "fresh"  # "cached": the program was lowered for an earlier binding

    @property
    def program(self) -> TargetStmt:
        return self.lowered.program

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


def bind(stmt: Stmt, inputs: Dict[str, InputSpec], outputs: Dict[str, OutputSpec]):
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


# Lowered programs kept for reuse by `compile_kernel`. A program depends on the
# kernel, on each binding's signature (level kinds, dims, dtype, fill,
# protocols) and on the facts of static payload that unfurling folded into it
# (`BoundTensor.fact`); it is reused for a binding with the same signature
# whose payload reads the same facts. A signature keeps the program it was
# last lowered to, and at most this many are kept, the least recently used
# evicted first: one pass of the benchmark's corpus sweep compiles 164
# signatures.
PROGRAM_CACHE_ENTRIES = 256


def _same(a, b) -> bool:
    """Equal and of one type: 1, 1.0 and True are different facts."""
    return type(a) is type(b) and a == b


class ProgramCache:
    """Lowered programs by signature, each with the facts it was lowered under
    and its generated code, which goes when the program is replaced or
    evicted.

    Holds programs, code, strings, ints and the rules, never a tensor: an
    entry's facts are one flat tuple of (tensor, depth, field, at, value)
    runs."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: "OrderedDict[tuple, Lowered]" = OrderedDict()  # most recent last

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self):
        self.entries.clear()

    def get(self, sig: tuple, tensors: Dict[str, BoundTensor]) -> Optional[Lowered]:
        """The entry of `sig` if `tensors` read its facts alike. Each
        tensor's facts are re-read in the order lowering read them, so a
        window is checked before any entry it bounds is read."""
        entry = self.entries.get(sig)
        if entry is None:
            return None
        runs = [iter(entry.facts)] * 5
        if not all(_same(tensors[n].fact(d, f, at), v) for n, d, f, at, v in zip(*runs)):
            return None
        self.entries.move_to_end(sig)
        return entry

    def put(self, sig: tuple, entry: Lowered):
        self.entries[sig] = entry
        self.entries.move_to_end(sig)
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)


PROGRAMS = ProgramCache(PROGRAM_CACHE_ENTRIES)


def _signature(stmt: Stmt, tensors: Dict[str, BoundTensor], ruleset: Ruleset) -> tuple:
    """What a lowered program depends on but the folded facts: one string of
    the kernel, keyed by its printed text, which tells 2 from 2.0 (equal
    `Stmt`s do not), and of the bindings, each fill as its type's name and
    repr; and the rules."""
    binds = [(name, bt.kinds, bt.dims, bt.dtype, bt.is_output,
              sorted((bt.protocols or {}).items()), type(bt.fill).__name__, bt.fill)
             for name, bt in tensors.items()]
    return f"{print_stmt(stmt)}\n{binds!r}", tuple(ruleset.rules)


def compile_kernel(stmt: Stmt, inputs: Dict[str, InputSpec],
                   outputs: Optional[Dict[str, OutputSpec]] = None,
                   params: Optional[Dict[str, Value]] = None,
                   ruleset: Optional[Ruleset] = None,
                   stages: bool = False) -> Compiled:
    """Bind the tensors and lower the kernel, or reuse the program lowered for
    an earlier binding of the same signature and facts (`PROGRAMS`). Collecting
    the lowering stages bypasses the cache; failures are never cached.
    `params` is not read: parameters stay runtime values, bound by `execute`."""
    tensors, writers = bind(stmt, inputs, outputs or {})
    ruleset = ruleset or Ruleset()
    if stages:
        ctx = LowerCtx(tensors, writers, ruleset=ruleset, collect_stages=True)
        return Compiled(Lowered(lower_program(ctx, stmt)), tensors, writers, stages=ctx.stages)
    sig = _signature(stmt, tensors, ruleset)
    entry = PROGRAMS.get(sig, tensors)
    if entry is not None:
        return Compiled(entry, tensors, writers, lowering="cached")
    for bt in tensors.values():  # facts read by the lookup are not guards
        bt.facts.clear()
    prog = lower_program(LowerCtx(tensors, writers, ruleset=ruleset), stmt)
    entry = Lowered(prog, tuple(x for name, bt in tensors.items() for key, v in bt.facts.items()
                                for x in (name, *key, v)))
    PROGRAMS.put(sig, entry)
    return Compiled(entry, tensors, writers)


@dataclass
class RunResult:
    outputs: Dict[str, Tensor]
    dense: Dict[str, list]
    counters: ExecCounters
    backend: str  # "interp" or "python": which backend ran the program
    codegen: Optional[str] = None  # "fresh" or "cached" generated code; None: interpreted


# Programs whose runtime buffers (inputs and outputs) hold at least this many
# stored entries run as generated Python; smaller ones are interpreted.
# Generating and compiling a program costs a fixed 1.5-10 ms the first time it
# runs on given runtime facts (its `Lowered` entry keeps the code, and later
# runs on the same facts pay only the guard, which reads the facts assembly
# recorded); interpreting costs about 25-100 us per stored entry. Measured on
# a 2-vCPU x86-64 machine with CPython 3.11, the interpreter and fresh code
# meet at 100-350 entries, and the interpreter and reused code at 10-20
# (reused code ran faster on 158 of the benchmark's 164 corpus-sweep
# programs, of 4-108 entries, when the guard still scanned). A lower bar
# would pay off only where programs rerun on the same facts, and `coil check`
# trials on random inputs seldom do; at 1024 fresh code is 3.5-15x faster, and
# every corpus-sweep job stays interpreted.
CODEGEN_MIN_ENTRIES = 1024


@dataclass
class Execution:
    """What one run of a program counted, which backend ran it, and whether
    generated code was generated for it or reused."""

    counters: ExecCounters
    backend: str
    codegen: Optional[str] = None


def run_program(lowered: Lowered, buffers: Dict[str, Buf], params: Optional[dict] = None,
                writers: Optional[dict] = None) -> Execution:
    """Run a lowered program on the backend its size calls for; generated
    code is kept in, and reused from, `lowered`.

    Both backends leave the same buffers and writers and count the same
    `ExecCounters`; the interpreter is the reference for both."""
    if sum(len(b) for b in buffers.values()) >= CODEGEN_MIN_ENTRIES:
        from . import codegen  # loaded on first use: small programs never need it

        code, reuse = codegen.generated(lowered, buffers, params, writers)
        return Execution(code(buffers, params, writers), "python", reuse)
    machine = interp.run_program(lowered.program, buffers, params=params, writers=writers)
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
    run = run_program(compiled.lowered, buffers, params=mparams, writers=writers)
    outs = {name: w.freeze() for name, w in writers.items()}
    dense = {name: to_dense(t) for name, t in outs.items()}
    return RunResult(outs, dense, run.counters, run.backend, run.codegen)


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
