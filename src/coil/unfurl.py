"""Unfurling: producing the looplet nest for a (format, protocol) access.

This is the single point where storage meets the looplet IR. When a fiber's
position is a compile-time constant (vector roots, static inputs), structural
metadata (position windows, band bounds) is folded into the nest, which is
what lets an all-fill operand annihilate at compile time. Value payloads are
never folded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cin import Cursor
from .expr import (
    Call,
    Expr,
    FALSE,
    Lit,
    ONE,
    Read,
    Search,
    TRUE,
    Var,
    eq,
    Extent,
    iadd,
    imul,
    isub,
    _const,
    le,
)
from .looplets import (
    Jumper,
    Lookup,
    Phase,
    Pipeline,
    Run,
    Spike,
    Stepper,
    Switch,
    push_shift,
    truncate,
)
from .storage import (
    Level,
    RepeatRLE,
    SparseBand,
    SparseList,
    SparseVBL,
    Tensor,
    buffer_names,
)
from .target import AssignVar, BufferWrite, CallStmt, Let, Template, TargetStmt
from .values import MISSING, Value


class CompileError(Exception):
    pass


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

    def bufname(self, depth: int, field: str) -> str:
        return self.buffers[(depth, field)]

    def level_kind(self, depth: int) -> str:
        return self.kinds[depth - 1]

    def mode_size(self, depth: int) -> int:
        return self.dims[depth - 1]

    def static_level(self, depth: int) -> Optional[Level]:
        if self.tensor is None:
            return None
        return self.tensor.levels()[depth - 1]


def _static_pos(bt: BoundTensor, cur: Cursor) -> Optional[int]:
    if bt.tensor is not None and isinstance(cur.pos, Lit):
        return cur.pos.value
    return None


def leaf_expr(bt: BoundTensor, depth: int, pos: Expr) -> Expr:
    """The value denoted by the fiber at `pos` of level `depth`: a scalar read
    for Element leaves, a bare cursor for deeper levels (the enclosing access
    keeps the remaining indices)."""
    kind = bt.level_kind(depth)
    if kind == "elem":
        return Read(bt.bufname(depth, "val"), (pos,))
    return Cursor(bt.name, depth, pos)


def _child_ref(bt: BoundTensor, depth: int, pos: Expr) -> Expr:
    return leaf_expr(bt, depth + 1, pos)


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
    kind = bt.level_kind(cur.depth)
    fill = Lit(bt.fill)
    size = bt.mode_size(cur.depth)
    d = cur.depth

    if kind == "dense":
        if proto in ("walk", "follow"):
            sym = names.fresh(f"i_{bt.name}")
            q = iadd(imul(isub(cur.pos, ONE), Lit(size)), Var(sym))
            return Lookup(sym, _child_ref(bt, d, q))
        if proto == "followzero":
            if bt.level_kind(d + 1) != "elem":
                raise CompileError(
                    f"{bt.name}: zero-check protocol needs a scalar leaf below the dense mode")
            sym = names.fresh(f"i_{bt.name}")
            q = iadd(imul(isub(cur.pos, ONE), Lit(size)), Var(sym))
            val = Read(bt.bufname(d + 1, "val"), (q,))
            return Lookup(sym, Switch(((eq(val, fill), Run(fill)), (TRUE, val))))
        raise CompileError(f"unsupported protocol {proto!r} for dense level of {bt.name}")

    if kind == "splist":
        posb, idxb = bt.bufname(d, "pos"), bt.bufname(d, "idx")
        sp = _static_pos(bt, cur)
        if sp is not None:
            lvl: SparseList = bt.static_level(d)
            plo, phi = Lit(lvl.pos[sp - 1]), Lit(lvl.pos[sp])
            if lvl.pos[sp - 1] == lvl.pos[sp]:
                return Run(fill)
            last = Lit(lvl.idx[lvl.pos[sp] - 2])
        else:
            plo = Read(posb, (cur.pos,))
            phi = Read(posb, (iadd(cur.pos, ONE),))
            last = Call("select", (le(iadd(plo, ONE), phi), Read(idxb, (isub(phi, ONE),)), Lit(0)))
        if proto in ("walk", "gallop"):
            p = names.fresh(f"p_{bt.name}")
            node_cls = Stepper if proto == "walk" else Jumper
            stepper = node_cls(
                stop=Read(idxb, (Var(p),)),
                body=Spike(fill, _child_ref(bt, d, Var(p))),
                next=Template((AssignVar(p, iadd(Var(p), ONE)),)),
                seek=Template((Let(p, Search(idxb, plo, isub(phi, ONE), Var("__start__"))),),
                              "__start__"),
            )
            return Pipeline((Phase(stepper, stop=last), Phase(Run(fill))))
        if proto == "follow":
            sym = names.fresh(f"i_{bt.name}")
            p = names.fresh(f"p_{bt.name}")
            found = Call("and", (le(Var(p), isub(phi, ONE)), eq(Read(idxb, (Var(p),)), Var(sym))))
            return Lookup(
                sym,
                Switch(((found, _child_ref(bt, d, Var(p))), (TRUE, Run(fill)))),
                binds=((p, Search(idxb, plo, isub(phi, ONE), Var(sym))),),
            )
        raise CompileError(f"unsupported protocol {proto!r} for sparse list level of {bt.name}")

    if kind == "sband":
        if proto not in ("walk", "follow"):
            raise CompileError(f"unsupported protocol {proto!r} for banded level of {bt.name}")
        sp = _static_pos(bt, cur)
        if sp is not None:
            lvl: SparseBand = bt.static_level(d)
            a, b, o = Lit(lvl.start[sp - 1]), Lit(lvl.stop[sp - 1]), Lit(lvl.ofs[sp - 1])
            if lvl.start[sp - 1] > lvl.stop[sp - 1]:
                return Run(fill)
        else:
            a = Read(bt.bufname(d, "start"), (cur.pos,))
            b = Read(bt.bufname(d, "stop"), (cur.pos,))
            o = Read(bt.bufname(d, "ofs"), (cur.pos,))
        sym = names.fresh(f"i_{bt.name}")
        body = Lookup(sym, _child_ref(bt, d, iadd(o, isub(Var(sym), a))))
        return Pipeline((Phase(Run(fill), stop=isub(a, ONE)), Phase(body, stop=b),
                         Phase(Run(fill))))

    if kind == "svbl":
        if proto != "walk":
            raise CompileError(f"unsupported protocol {proto!r} for block list level of {bt.name}")
        posb, idxb, ofsb = bt.bufname(d, "pos"), bt.bufname(d, "idx"), bt.bufname(d, "ofs")
        sp = _static_pos(bt, cur)
        if sp is not None:
            lvl: SparseVBL = bt.static_level(d)
            plo, phi = Lit(lvl.pos[sp - 1]), Lit(lvl.pos[sp])
            if lvl.pos[sp - 1] == lvl.pos[sp]:
                return Run(fill)
            last = Lit(lvl.idx[lvl.pos[sp] - 2])
        else:
            plo = Read(posb, (cur.pos,))
            phi = Read(posb, (iadd(cur.pos, ONE),))
            last = Call("select", (le(iadd(plo, ONE), phi), Read(idxb, (isub(phi, ONE),)), Lit(0)))
        bvar = names.fresh(f"b_{bt.name}")
        blk_end = Read(idxb, (Var(bvar),))
        blk_len = isub(Read(ofsb, (iadd(Var(bvar), ONE),)), Read(ofsb, (Var(bvar),)))
        blk_start = iadd(isub(blk_end, blk_len), ONE)
        sym = names.fresh(f"i_{bt.name}")
        inner = Lookup(sym, _child_ref(bt, d, iadd(Read(ofsb, (Var(bvar),)),
                                                   isub(Var(sym), blk_start))))
        block = Pipeline((Phase(Run(fill), stop=isub(blk_start, ONE)), Phase(inner)))
        stepper = Stepper(
            stop=blk_end,
            body=block,
            next=Template((AssignVar(bvar, iadd(Var(bvar), ONE)),)),
            seek=Template((Let(bvar, Search(idxb, plo, isub(phi, ONE), Var("__start__"))),),
                          "__start__"),
        )
        return Pipeline((Phase(stepper, stop=last), Phase(Run(fill))))

    if kind == "rle":
        posb, idxb, valb = bt.bufname(d, "pos"), bt.bufname(d, "idx"), bt.bufname(d, "val")
        sp = _static_pos(bt, cur)
        if sp is not None:
            lvl: RepeatRLE = bt.static_level(d)
            plo, phi = Lit(lvl.pos[sp - 1]), Lit(lvl.pos[sp])
        else:
            plo = Read(posb, (cur.pos,))
            phi = Read(posb, (iadd(cur.pos, ONE),))
        if proto == "walk":
            r = names.fresh(f"r_{bt.name}")
            return Stepper(
                stop=Read(idxb, (Var(r),)),
                body=Run(Read(valb, (Var(r),))),
                next=Template((AssignVar(r, iadd(Var(r), ONE)),)),
                seek=Template((Let(r, Search(idxb, plo, isub(phi, ONE), Var("__start__"))),),
                              "__start__"),
            )
        if proto == "follow":
            sym = names.fresh(f"i_{bt.name}")
            r = names.fresh(f"r_{bt.name}")
            return Lookup(sym, Read(valb, (Var(r),)),
                          binds=((r, Search(idxb, plo, isub(phi, ONE), Var(sym))),))
        raise CompileError(f"unsupported protocol {proto!r} for run-length level of {bt.name}")

    raise CompileError(f"cannot unfurl level kind {kind!r} of {bt.name}")


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


def mask_looplet(bound: str, target: Expr):
    """Boolean looplet that is true exactly at index == target (loop-invariant)."""
    return Pipeline((
        Phase(Run(FALSE), stop=isub(target, ONE)),
        Phase(Spike(FALSE, TRUE), stop=target),
        Phase(Run(FALSE)),
    ))


# -- output writers (compile-time plans) ---------------------------------------


@dataclass
class WriterPlan:
    """Init / per-index write / finalize code for one output tensor."""

    name: str
    dims: List[int]
    fill: Value
    dtype: str
    kinds: List[str]

    def __post_init__(self):
        body = self.kinds[:-1] if self.kinds[-1] == "elem" else self.kinds
        for k in body[:-1] if body else []:
            if k != "dense":
                raise CompileError(
                    f"output {self.name}: only dense outer modes are supported, got {k!r}")
        self.mode = "dense"
        if body:
            if body[-1] == "splist":
                self.mode = "splist"
            elif body[-1] == "rle":
                self.mode = "rle"
            elif body[-1] != "dense":
                raise CompileError(
                    f"output {self.name}: unsupported output level kind {body[-1]!r}")
        suffix = ""
        self.valbuf = f"{self.name}_val{suffix}"

    @property
    def append_only(self) -> bool:
        return self.mode in ("splist", "rle")

    @property
    def supports_run_set(self) -> bool:
        return self.mode == "rle"

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
        if self.mode == "dense":
            return (BufferWrite(self.valbuf, (self.linear_pos(idx),), op, value),)
        return (CallStmt(f"{self.name}.append_{op}", tuple(idx) + (value,)),)

    def run_set_stmts(self, prefix: Tuple[Expr, ...], lo: Expr, hi: Expr,
                      value: Expr) -> Tuple[TargetStmt, ...]:
        assert self.supports_run_set
        return (CallStmt(f"{self.name}.run_set", tuple(prefix) + (lo, hi, value)),)
