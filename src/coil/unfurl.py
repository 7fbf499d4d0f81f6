"""Unfurling: producing the looplet nest for a (format, protocol) access.

This is the single point where storage meets the looplet IR: the level class
of the accessed mode unfurls the fiber with its function for the protocol
(`Level.protocols`). When a fiber's position is a compile-time constant
(vector roots, static inputs), structural metadata (position windows, band
bounds, whether the fiber is empty) is folded into the nest, which is what
lets an all-fill operand annihilate at compile time. Value payloads are never
folded.

Every folded fact is read through `BoundTensor.fact`, which records it. The
recorded facts are the guards of a cached program (`api.compile_kernel`):
the program is reused for a later binding of the same signature only when
that binding's payload reads the same facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cin import CompileError, Cursor
from .expr import Expr, FALSE, Lit, ONE, TRUE, Extent, iadd, imul, isub, _const
from .levels import KINDS, Fiber, normalize_spec
from .looplets import Phase, Pipeline, Run, Spike, push_shift, truncate
from .storage import Tensor, buffer_names, from_buffers
from .target import BufferWrite, CallStmt, TargetStmt
from .values import MISSING, Value
from .writers import DenseWriter


@dataclass
class BoundTensor:
    """Compile-time view of one tensor binding."""

    name: str
    dims: List[int]
    fill: Value
    dtype: str
    kinds: List[str]                      # per-level kinds, leaf included
    tensor: Optional[Tensor] = None       # static payload (inputs only)
    is_output: bool = False
    protocols: Optional[Dict[int, str]] = None  # mode -> default protocol

    def __post_init__(self):
        self.buffers = buffer_names(self.name, self.kinds)
        self.levels = [KINDS[k] for k in self.kinds]
        self.payload = self.tensor.levels() if self.tensor is not None else None
        self.facts: Dict[Tuple[int, str, int], Value] = {}  # what `fact` has read

    def fact(self, depth: int, field: str, at: int):
        """A structural fact of the static payload, recorded in `facts` as
        (depth, field, at) -> value: entry `at` (0-based) of level `depth`'s
        `field` buffer, or, for field "empty", whether fiber `at` stores
        nothing."""
        lvl = self.payload[depth - 1]
        v = next(lvl.entries(at), None) is None if field == "empty" else getattr(lvl, field)[at]
        self.facts[(depth, field, at)] = v
        return v

    def bufname(self, depth: int, field: str) -> str:
        return self.buffers[(depth, field)]

    def mode_size(self, depth: int) -> int:
        return self.dims[depth - 1]


class _FreshNames:
    def __init__(self):
        self.used: set = set()
        self.counts: Dict[str, int] = {}

    def fresh(self, base: str) -> str:
        n = self.counts.get(base, 0)
        while True:
            n += 1
            name = base if n == 1 and base not in self.used else f"{base}{n}"
            if name not in self.used:
                self.counts[base] = n
                self.used.add(name)
                return name


def unfurl(bt: BoundTensor, cur: Cursor, proto: str, names: _FreshNames) -> "Looplet":
    """Looplet nest denoting the fiber's value sequence over 1:size."""
    level = bt.levels[cur.depth - 1]
    if proto not in level.protocols:
        raise CompileError(f"unsupported protocol {proto!r} for {level.kind} level of {bt.name}")
    static = bt.tensor is not None and isinstance(cur.pos, Lit)
    f = Fiber(bt, cur.depth, cur.pos, names, static)
    if f.empty():
        return Run(f.fill)
    return level.protocols[proto](f)


def unfurl_modified(bt: BoundTensor, cur: Cursor, proto: str, names: _FreshNames,
                    modifiers: List[Tuple[str, Tuple[Expr, ...]]]):
    """Apply index modifiers (innermost first) around a fiber's looplet nest.

    Returns the modified looplet; permit must be outermost when present.
    """
    size = bt.mode_size(cur.depth)
    base = unfurl(bt, cur, proto, names)
    lo: Expr = ONE
    hi: Expr = Lit(size)
    for k, (kind, params) in enumerate(modifiers):
        if kind == "window":
            a, b = params
            ca, cb = _const(a), _const(b)
            clo, chi = _const(lo), _const(hi)
            if ca is not None and cb is not None and clo is not None and chi is not None:
                if not (clo <= ca <= cb <= chi):
                    raise CompileError(
                        f"window {ca}:{cb} outside the dimension {clo}:{chi} of {bt.name}")
            base = truncate(base, Extent(lo, hi), Extent(a, b))
            base = push_shift(isub(ONE, a), base)
            lo, hi = ONE, iadd(isub(b, a), ONE)
        elif kind == "offset":
            d = params[0]
            base = push_shift(d, base)
            lo, hi = iadd(lo, d), iadd(hi, d)
        elif kind == "permit":
            if k != len(modifiers) - 1:
                raise CompileError("permit must be the outermost index modifier")
            base = Pipeline((
                Phase(Run(Lit(MISSING)), stop=isub(lo, ONE)),
                Phase(base, stop=hi),
                Phase(Run(Lit(MISSING))),
            ))
        else:
            raise CompileError(f"unknown index modifier {kind!r}")
    return base


def mask_looplet(target: Expr):
    """Boolean looplet that is true exactly at index == target (loop-invariant)."""
    return Pipeline((
        Phase(Run(FALSE), stop=isub(target, ONE)),
        Phase(Spike(FALSE, TRUE), stop=target),
        Phase(Run(FALSE)),
    ))


# -- output writers (compile-time plans) ---------------------------------------


@dataclass
class WriterPlan:
    """Init / per-index write / finalize code for one output tensor, and the
    runtime writer that takes it: the writer of the level class of its last
    mode (of the scalar leaf when the output has rank 0)."""

    name: str
    dims: List[int]
    fill: Value
    dtype: str
    kinds: List[str]

    def __post_init__(self):
        self.kinds = normalize_spec(self.kinds, len(self.dims))
        *outer, last = [KINDS[k] for k in self.kinds[:max(len(self.dims), 1)]]
        for lvl in outer:  # the writers address the fibers of the last mode densely
            if lvl.writer is not DenseWriter:
                raise CompileError(
                    f"output {self.name}: only dense outer modes are supported, got {lvl.kind!r}")
        if last.writer is None:
            raise CompileError(
                f"output {self.name}: unsupported output level kind {last.kind!r}")
        self.writer = last.writer
        self.buffers = buffer_names(self.name, self.kinds)
        self.valbuf = self.buffers[(len(self.kinds), "val")]

    def tensor(self, data: Dict[str, list]) -> Tensor:
        """The output over these buffer contents (buffer name -> values)."""
        return from_buffers(self.name, self.dims, self.kinds, data, self.fill, self.dtype)

    def init_stmts(self) -> Tuple[TargetStmt, ...]:
        return (CallStmt(f"{self.name}.init"),)

    def finalize_stmts(self) -> Tuple[TargetStmt, ...]:
        return (CallStmt(f"{self.name}.finalize"),)

    def linear_pos(self, idx: Tuple[Expr, ...]) -> Expr:
        pos: Expr = Lit(0)
        for k, e in enumerate(idx):
            stride = 1
            for dd in self.dims[k + 1:]:
                stride *= dd
            pos = iadd(pos, imul(isub(e, ONE), Lit(stride)))
        return iadd(pos, ONE)

    def write_stmts(self, idx: Tuple[Expr, ...], op: str, value: Expr) -> Tuple[TargetStmt, ...]:
        if not self.writer.appends:
            return (BufferWrite(self.valbuf, (self.linear_pos(idx),), op, value),)
        return (CallStmt(f"{self.name}.append_{op}", tuple(idx) + (value,)),)

    def run_set_stmts(self, prefix: Tuple[Expr, ...], lo: Expr, hi: Expr,
                      value: Expr) -> Tuple[TargetStmt, ...]:
        assert self.writer.runs
        return (CallStmt(f"{self.name}.run_set", tuple(prefix) + (lo, hi, value)),)
