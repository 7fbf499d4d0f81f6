"""Imperative target IR: structured statements over symbolic expressions.

The IR is the compiler's final output. It is printable (deterministic text for
golden tests) and runs on two backends: `interp` walks it with a counting
interpreter, the semantic and counter reference, and `codegen` lowers it to
one Python function with the same checks, results and counters. `api.execute`
picks the backend by input size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .expr import Expr, print_expr, subst, walk


class TargetStmt:
    """Target statement; same traversal protocol as `Expr`."""

    __slots__ = ()

    def children(self) -> tuple:
        return ()

    def map(self, fe, fs):
        return self


@dataclass(frozen=True)
class Block(TargetStmt):
    stmts: Tuple[TargetStmt, ...]

    def children(self):
        return self.stmts

    def map(self, fe, fs):
        return Block(tuple(map(fs, self.stmts)))


@dataclass(frozen=True)
class Let(TargetStmt):
    """Declare-and-bind a fresh variable in the current scope."""

    name: str
    value: Expr

    def children(self):
        return (self.value,)

    def map(self, fe, fs):
        return Let(self.name, fe(self.value))


@dataclass(frozen=True)
class AssignVar(TargetStmt):
    name: str
    value: Expr

    def children(self):
        return (self.value,)

    def map(self, fe, fs):
        return AssignVar(self.name, fe(self.value))


@dataclass(frozen=True)
class BufferWrite(TargetStmt):
    """Combine a value into a buffer slot: op in {set, add, mul, min, max, or}."""

    buf: str
    idx: Tuple[Expr, ...]
    op: str
    value: Expr

    def children(self):
        return self.idx + (self.value,)

    def map(self, fe, fs):
        return BufferWrite(self.buf, tuple(map(fe, self.idx)), self.op, fe(self.value))


@dataclass(frozen=True)
class For(TargetStmt):
    var: str
    lo: Expr
    hi: Expr
    body: TargetStmt

    def children(self):
        return (self.lo, self.hi, self.body)

    def map(self, fe, fs):
        return For(self.var, fe(self.lo), fe(self.hi), fs(self.body))


@dataclass(frozen=True)
class While(TargetStmt):
    """cursor, when set, names a variable that must strictly increase per
    iteration; the interpreter traps non-progressing loops."""

    cond: Expr
    body: TargetStmt
    cursor: Optional[str] = None

    def children(self):
        return (self.cond, self.body)

    def map(self, fe, fs):
        return While(fe(self.cond), fs(self.body), self.cursor)


@dataclass(frozen=True)
class IfChain(TargetStmt):
    cases: Tuple[Tuple[Expr, TargetStmt], ...]
    orelse: Optional[TargetStmt] = None

    def children(self):
        out = tuple(x for case in self.cases for x in case)
        return out if self.orelse is None else out + (self.orelse,)

    def map(self, fe, fs):
        cases = tuple((fe(c), fs(b)) for c, b in self.cases)
        return IfChain(cases, None if self.orelse is None else fs(self.orelse))


@dataclass(frozen=True)
class CallStmt(TargetStmt):
    """Writer hook invocation (init / append / run_set / finalize)."""

    fn: str
    args: Tuple[Expr, ...] = ()

    def children(self):
        return self.args

    def map(self, fe, fs):
        return CallStmt(self.fn, tuple(map(fe, self.args)))


@dataclass(frozen=True)
class Nop(TargetStmt):
    pass


NOP = Nop()


def block(stmts) -> TargetStmt:
    """Flatten into a Block, dropping nops; a single statement stays bare."""
    flat = []
    for s in stmts:
        if isinstance(s, Nop):
            continue
        if isinstance(s, Block):
            flat.extend(s.stmts)
        else:
            flat.append(s)
    if not flat:
        return NOP
    if len(flat) == 1:
        return flat[0]
    return Block(tuple(flat))


def is_nop(s: TargetStmt) -> bool:
    return isinstance(s, Nop) or (isinstance(s, Block) and all(is_nop(x) for x in s.stmts))


_WRITE_OP = {"set": "=", "add": "+=", "mul": "*=", "min": "<<min>>=", "max": "<<max>>=", "or": "<<or>>="}


def print_stmt(s: TargetStmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, Nop):
        return f"{pad}nop"
    if isinstance(s, Block):
        if not s.stmts:
            return f"{pad}nop"
        return "\n".join(print_stmt(x, indent) for x in s.stmts)
    if isinstance(s, Let):
        return f"{pad}let {s.name} = {print_expr(s.value)}"
    if isinstance(s, AssignVar):
        return f"{pad}{s.name} = {print_expr(s.value)}"
    if isinstance(s, BufferWrite):
        idx = ", ".join(print_expr(i) for i in s.idx)
        return f"{pad}{s.buf}[{idx}] {_WRITE_OP[s.op]} {print_expr(s.value)}"
    if isinstance(s, For):
        head = f"{pad}for {s.var} = {print_expr(s.lo)}:{print_expr(s.hi)}"
        body = print_stmt(s.body, indent + 1) if not is_nop(s.body) else None
        lines = [head] + ([body] if body else []) + [f"{pad}end"]
        return "\n".join(lines)
    if isinstance(s, While):
        head = f"{pad}while {print_expr(s.cond)}"
        body = print_stmt(s.body, indent + 1) if not is_nop(s.body) else None
        lines = [head] + ([body] if body else []) + [f"{pad}end"]
        return "\n".join(lines)
    if isinstance(s, IfChain):
        lines = []
        for k, (cond, body) in enumerate(s.cases):
            kw = "if" if k == 0 else "elseif"
            lines.append(f"{pad}{kw} {print_expr(cond)}")
            if not is_nop(body):
                lines.append(print_stmt(body, indent + 1))
        if s.orelse is not None and not is_nop(s.orelse):
            lines.append(f"{pad}else")
            lines.append(print_stmt(s.orelse, indent + 1))
        lines.append(f"{pad}end")
        return "\n".join(lines)
    if isinstance(s, CallStmt):
        return f"{pad}call {s.fn}({', '.join(print_expr(a) for a in s.args)})"
    raise TypeError(f"unknown statement {s!r}")


def print_ir(s: TargetStmt) -> str:
    return print_stmt(s, 0)


def count_loops(s: TargetStmt) -> int:
    """Number of loop nodes (For + While) in the program."""
    return sum(1 for n in walk(s) if isinstance(n, (For, While)))


@dataclass(frozen=True)
class Template:
    """A parameterized statement list (stepper seek/next code).

    `param`, when set, is substituted with the current target start index.
    """

    stmts: Tuple[TargetStmt, ...]
    param: Optional[str] = None

    def children(self):
        return self.stmts

    def map(self, fe, fs):
        return Template(tuple(map(fs, self.stmts)), self.param)

    def instantiate(self, arg: Optional[Expr] = None) -> Tuple[TargetStmt, ...]:
        if self.param is None:
            return self.stmts
        assert arg is not None, "template requires a start argument"
        return subst(self, {self.param: arg}).stmts
