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

from .expr import Expr, print_expr, subst


class TargetStmt:
    __slots__ = ()


@dataclass(frozen=True)
class Block(TargetStmt):
    stmts: Tuple[TargetStmt, ...]


@dataclass(frozen=True)
class Let(TargetStmt):
    """Declare-and-bind a fresh variable in the current scope."""

    name: str
    value: Expr


@dataclass(frozen=True)
class AssignVar(TargetStmt):
    name: str
    value: Expr


@dataclass(frozen=True)
class BufferWrite(TargetStmt):
    """Combine a value into a buffer slot: op in {set, add, mul, min, max, or}."""

    buf: str
    idx: Tuple[Expr, ...]
    op: str
    value: Expr


@dataclass(frozen=True)
class For(TargetStmt):
    var: str
    lo: Expr
    hi: Expr
    body: TargetStmt


@dataclass(frozen=True)
class While(TargetStmt):
    """cursor, when set, names a variable that must strictly increase per
    iteration; the interpreter traps non-progressing loops."""

    cond: Expr
    body: TargetStmt
    cursor: Optional[str] = None


@dataclass(frozen=True)
class IfChain(TargetStmt):
    cases: Tuple[Tuple[Expr, TargetStmt], ...]
    orelse: Optional[TargetStmt] = None


@dataclass(frozen=True)
class CallStmt(TargetStmt):
    """Writer hook invocation (init / append / run_set / finalize)."""

    fn: str
    args: Tuple[Expr, ...] = ()


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


def subst_stmt(s: TargetStmt, env: dict) -> TargetStmt:
    if isinstance(s, Block):
        return Block(tuple(subst_stmt(x, env) for x in s.stmts))
    if isinstance(s, Let):
        return Let(s.name, subst(s.value, env))
    if isinstance(s, AssignVar):
        return AssignVar(s.name, subst(s.value, env))
    if isinstance(s, BufferWrite):
        return BufferWrite(s.buf, tuple(subst(i, env) for i in s.idx), s.op, subst(s.value, env))
    if isinstance(s, For):
        return For(s.var, subst(s.lo, env), subst(s.hi, env), subst_stmt(s.body, env))
    if isinstance(s, While):
        return While(subst(s.cond, env), subst_stmt(s.body, env), s.cursor)
    if isinstance(s, IfChain):
        cases = tuple((subst(c, env), subst_stmt(b, env)) for c, b in s.cases)
        orelse = subst_stmt(s.orelse, env) if s.orelse is not None else None
        return IfChain(cases, orelse)
    if isinstance(s, CallStmt):
        return CallStmt(s.fn, tuple(subst(a, env) for a in s.args))
    return s


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
    if isinstance(s, (For, While)):
        inner = count_loops(s.body)
        return 1 + inner
    if isinstance(s, Block):
        return sum(count_loops(x) for x in s.stmts)
    if isinstance(s, IfChain):
        n = sum(count_loops(b) for _, b in s.cases)
        if s.orelse is not None:
            n += count_loops(s.orelse)
        return n
    return 0


@dataclass(frozen=True)
class Template:
    """A parameterized statement list (stepper seek/next code).

    `param`, when set, is substituted with the current target start index.
    """

    stmts: Tuple[TargetStmt, ...]
    param: Optional[str] = None

    def instantiate(self, arg: Optional[Expr] = None) -> Tuple[TargetStmt, ...]:
        if self.param is None:
            return self.stmts
        assert arg is not None, "template requires a start argument"
        env = {self.param: arg}
        return tuple(subst_stmt(s, env) for s in self.stmts)
