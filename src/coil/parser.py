"""Recursive-descent parser for the kernel text format.

One statement per file; `#` starts a line comment. The printer in cin.py is
the inverse: parse(print(ast)) == ast.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from .cin import (
    Access,
    Assign,
    CinError,
    Forall,
    Mod,
    Multi,
    PassStmt,
    Proto,
    Sieve,
    Stmt,
    UPDATE_TOKEN,
    Where,
)
from .expr import Call, Expr, Extent, Lit, Var
from .levels import KINDS
from .values import MISSING, OP_ARITY

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<atword>@[A-Za-z]+)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><<min>>=|<<max>>=|<<or>>=|\+=|\*=|==|!=|<=|>=|&&|\|\||::|[=<>()\[\]{},;:+\-*/^$∈])
    """,
    re.VERBOSE,
)

# Deepest statement/expression tree a kernel may have, counted in nodes from
# the statement root to the deepest leaf; the parser's own recursion stops
# here too. The parser (about 13 frames per level), simplify, lowering, the
# interpreter and the oracle recurse per level, and generated code indents
# one level per nested branch (CPython allows 100). Called from a stack 120
# frames deep, all of them run every nesting shape to a height of 68, the
# parser failing first; generated code fails at 101 (a `@sieve` per level).
MAX_DEPTH = 64

MODIFIERS = {"window": 2, "offset": 1, "permit": 0}
PROTOCOLS = frozenset(p for cls in KINDS.values() for p in cls.protocols)
_UPDATE = {token: op for op, token in UPDATE_TOKEN.items()}


@dataclass
class Tok:
    kind: str  # atword | num | name | op | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Tok]:
    toks = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise CinError(f"line {line} col {col}: unexpected character {text[pos]!r}")
        frag = m.group(0)
        if m.lastgroup != "ws":
            toks.append(Tok(m.lastgroup, frag, line, col))
        nl = frag.count("\n")
        if nl:
            line += nl
            col = len(frag) - frag.rfind("\n")
        else:
            col += len(frag)
        pos = m.end()
    toks.append(Tok("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0  # nested statements and expressions being parsed

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg: str):
        t = self.peek()
        raise CinError(f"line {t.line} col {t.col}: {msg}")

    def accept(self, text: str) -> bool:
        t = self.peek()
        if t.kind != "eof" and t.text == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str):
        if not self.accept(text):
            self.error(f"expected {text!r}, found {self.peek().text!r}")

    def nested(self, parse):
        """Run one recursive parse step, one level deeper; refusing to go past
        MAX_DEPTH keeps the parser's own recursion bounded."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"kernel nests deeper than {MAX_DEPTH} levels")
        out = parse()
        self.depth -= 1
        return out

    # -- statements ----------------------------------------------------------

    def parse_program(self) -> Stmt:
        s = self.parse_stmt()
        if self.peek().kind != "eof":
            self.error("expected end of input")
        if _height(s) > MAX_DEPTH:  # operator chains and `where` chains nest without recursing
            raise CinError(f"kernel nests deeper than {MAX_DEPTH} levels")
        _validate_protocols(s)
        return s

    def parse_stmt(self) -> Stmt:
        s = self.parse_stmt_primary()
        while self.peek().kind == "name" and self.peek().text == "where":
            self.next()
            prod = self.parse_stmt_primary()
            s = Where(s, prod)
        return s

    def parse_stmt_primary(self) -> Stmt:
        return self.nested(self._parse_stmt_primary)

    def _parse_stmt_primary(self) -> Stmt:
        t = self.peek()
        if t.text == "(":
            self.next()
            s = self.parse_stmt()
            self.expect(")")
            return s
        if t.kind == "atword":
            return self._parse_at()
        if t.kind == "name":
            return self.parse_assign()
        self.error(f"cannot start a statement with {t.text!r}")

    def _parse_at(self) -> Stmt:
        t = self.next()
        kw = t.text
        if kw in ("@V", "@loop"):
            indices = []
            while (self.peek().kind == "name" and self.peek().text not in ("in", "where")
                   and not self._starts_assign()):
                indices.append(self.next().text)
            if not indices:
                self.error("expected at least one loop index")
            ext = None
            has_ext = self.accept("∈")
            if not has_ext and self.peek().kind == "name" and self.peek().text == "in":
                self.next()
                has_ext = True
            if has_ext:
                lo = self.parse_expr()
                self.expect(":")
                hi = self.parse_expr()
                ext = Extent(lo, hi)
            body = self.parse_stmt()
            for k, idx in enumerate(reversed(indices)):
                body = Forall(idx, ext if k == 0 else None, body)
                ext = None
            return body
        if kw == "@sieve":
            cond = self.parse_expr()
            body = self.parse_stmt_primary()
            return Sieve(cond, body)
        if kw == "@pass":
            tensors = []
            while self.peek().kind == "name":
                tensors.append(self.next().text)
            return PassStmt(tuple(tensors))
        if kw == "@multi":
            self.expect("{")
            parts = [self.parse_stmt()]
            while self.accept(";"):
                if self.peek().text == "}":
                    break
                parts.append(self.parse_stmt())
            self.expect("}")
            return Multi(tuple(parts))
        raise CinError(f"line {t.line} col {t.col}: unknown statement keyword {kw!r}")

    def _starts_assign(self) -> bool:
        """In a forall header, a name followed by '[' starts the body."""
        nxt = self.toks[self.i + 1]
        return nxt.text == "[" or nxt.text in _UPDATE

    def parse_assign(self) -> Stmt:
        lhs = self.parse_expr()
        opt = self.peek().text
        if opt not in _UPDATE:
            self.error(f"expected an update operator, found {opt!r}")
        if not isinstance(lhs, Access) or not isinstance(lhs.base, str):
            self.error("assignment target must be a tensor access")
        self.next()
        rhs = self.parse_expr()
        return Assign(lhs, _UPDATE[opt], rhs)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.nested(self.parse_or)

    def _nary(self, sub, sep: str, op: str) -> Expr:
        e = sub()
        if self.peek().text != sep:
            return e
        parts = [e]
        while self.accept(sep):
            parts.append(sub())
        return Call(op, tuple(parts))

    def parse_or(self) -> Expr:
        return self._nary(self.parse_and, "||", "or")

    def parse_and(self) -> Expr:
        return self._nary(self.parse_cmp, "&&", "and")

    def parse_cmp(self) -> Expr:
        e = self.parse_add()
        ops = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
        if self.peek().text in ops:
            op = ops[self.next().text]
            return Call(op, (e, self.parse_add()))
        return e

    def parse_add(self) -> Expr:
        e = self.parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_mul()
            if op == "+":
                if isinstance(e, Call) and e.op == "add":
                    e = Call("add", e.args + (rhs,))
                else:
                    e = Call("add", (e, rhs))
            else:
                e = Call("sub", (e, rhs))
        return e

    def parse_mul(self) -> Expr:
        e = self.parse_unary()
        while self.peek().text in ("*", "/"):
            if self.next().text == "/":
                self.error("division is not supported")
            rhs = self.parse_unary()
            if isinstance(e, Call) and e.op == "mul":
                e = Call("mul", e.args + (rhs,))
            else:
                e = Call("mul", (e, rhs))
        return e

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            return Call("neg", (self.nested(self.parse_unary),))
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_atom()
        while True:
            if self.peek().text == "^":
                self.next()
                e = Call("pow", (e, self.nested(self.parse_unary)))
            elif self.peek().text == "::":
                self.next()
                t = self.next()
                if t.kind != "name" or t.text not in PROTOCOLS:
                    raise CinError(f"line {t.line} col {t.col}: unknown protocol {t.text!r}")
                e = Proto(t.text, e)
            else:
                return e

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.text == "$":
            self.next()
            name = self.next()
            if name.kind != "name":
                self.error("expected a parameter name after $")
            return Var("$" + name.text)
        if t.kind == "num":
            self.next()
            if any(c in t.text for c in ".eE"):
                return Lit(float(t.text))
            return Lit(int(t.text))
        if t.kind == "name":
            return self.parse_name_atom()
        self.error(f"unexpected token {t.text!r} in expression")

    def parse_name_atom(self) -> Expr:
        t = self.next()
        name = t.text
        if name == "true":
            return Lit(True)
        if name == "false":
            return Lit(False)
        if name == "missing":
            return Lit(MISSING)
        if name in MODIFIERS:
            arity = MODIFIERS[name]
            params: Tuple[Expr, ...] = ()
            if arity:
                self.expect("(")
                ps = [self.parse_expr()]
                while self.accept(","):
                    ps.append(self.parse_expr())
                self.expect(")")
                if len(ps) != arity:
                    raise CinError(
                        f"line {t.line} col {t.col}: {name} takes {arity} parameter(s)")
                params = tuple(ps)
            self.expect("[")
            inner = self.parse_expr()
            self.expect("]")
            return Mod(name, params, inner)
        if self.peek().text == "(":
            self.next()
            args = []
            if self.peek().text != ")":
                args.append(self.parse_expr())
                while self.accept(","):
                    args.append(self.parse_expr())
            self.expect(")")
            if name not in OP_ARITY:
                raise CinError(f"line {t.line} col {t.col}: unknown operation {name!r}")
            lo, hi = OP_ARITY[name]
            if len(args) < lo or hi is not None and len(args) > hi:
                raise CinError(f"line {t.line} col {t.col}: {name} takes "
                               f"{lo if hi == lo else f'at least {lo}'} operand(s), "
                               f"got {len(args)}")
            return Call(name, tuple(args))
        if self.peek().text == "[":
            self.next()
            idx = []
            if self.peek().text != "]":
                idx.append(self.parse_expr())
                while self.accept(","):
                    idx.append(self.parse_expr())
            self.expect("]")
            return Access(name, tuple(idx))
        return Var(name)


def _height(root) -> int:
    """Nodes on the longest root-to-leaf path of a statement or expression."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        n, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((c, d + 1) for c in n.children())
    return deepest


def _validate_protocols(n, at_index: bool = False):
    """Protocol annotations may only wrap index positions of an access."""
    if isinstance(n, Proto):
        if not at_index:
            raise CinError("protocol annotation on a non-index expression")
        _validate_protocols(n.inner, True)
    elif isinstance(n, Mod):
        for p in n.params:
            _validate_protocols(p, False)
        _validate_protocols(n.inner, at_index)
    elif isinstance(n, Access):
        for i in n.idx:
            _validate_protocols(i, True)
    else:
        for c in n.children():
            _validate_protocols(c, False)


def parse(text: str) -> Stmt:
    return Parser(text).parse_program()
