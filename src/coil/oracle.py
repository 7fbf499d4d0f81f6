"""Brute-force dense oracle: interprets CIN directly over dense arrays.

This is an independent code path from the compiler: no looplets, no rewrite
rules, just nested loops and direct index arithmetic with the shared
missing/coalesce value semantics. Used by `check` and by every randomized
equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .cin import (
    Access,
    Assign,
    Forall,
    Mod,
    Multi,
    PassStmt,
    Proto,
    Sieve,
    Stmt,
    Where,
    annotate_extents,
    assign_scopes,
)
from .expr import Call, Expr, Lit, Var
from .values import MISSING, SELECT_NOT_BOOL, EvalError, apply_op, coerce, value_repr


class OracleError(Exception):
    pass


@dataclass
class DenseData:
    """One tensor binding: row-major dense payload."""

    dims: List[int]
    data: list
    fill: object = 0.0
    dtype: str = "float"

    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n


def evaluate(stmt: Stmt, bindings: Dict[str, DenseData], params: Optional[dict] = None) -> Dict[str, list]:
    """Run a kernel over dense data; returns the final arrays of every tensor
    initialized by the program (outputs and intermediates)."""
    params = params or {}
    dims = {name: dd.dims for name, dd in bindings.items()}
    stmt = annotate_extents(stmt, dims)
    stmt, root_inits = assign_scopes(stmt)
    store = {name: list(dd.data) for name, dd in bindings.items()}
    ev = _Evaluator(bindings, store, params)
    for t in root_inits:
        ev.init(t)
    ev.stmt(stmt, {})
    return {t: store[t] for t in ev.initialized}


class _Evaluator:
    def __init__(self, bindings, store, params):
        self.bindings = bindings
        self.store = store
        self.params = params
        self.initialized: list = []

    def init(self, t: str):
        if t not in self.bindings:
            raise OracleError(f"tensor {t!r} is written but not bound")
        dd = self.bindings[t]
        self.store[t] = [dd.fill] * dd.size()
        if t not in self.initialized:
            self.initialized.append(t)

    # -- statements ---------------------------------------------------------

    def stmt(self, s: Stmt, env: dict):
        if isinstance(s, Assign):
            self.assign(s, env)
            return
        if isinstance(s, Forall):
            lo = self.expr(s.ext.start, env)
            hi = self.expr(s.ext.stop, env)
            for i in range(lo, hi + 1):
                env2 = dict(env)
                env2[s.idx] = i
                self.stmt(s.body, env2)
            return
        if isinstance(s, Where):
            for t in s.inits:
                self.init(t)
            self.stmt(s.prod, env)
            self.stmt(s.cons, env)
            return
        if isinstance(s, Multi):
            for p in s.parts:
                self.stmt(p, env)
            return
        if isinstance(s, Sieve):
            c = self.expr(s.cond, env)
            if c is MISSING:
                raise OracleError("missing value in a sieve condition")
            if not isinstance(c, bool):
                raise OracleError("sieve condition must be boolean")
            if c:
                self.stmt(s.body, env)
            return
        if isinstance(s, PassStmt):
            return
        raise OracleError(f"cannot evaluate {s!r}")

    def assign(self, s: Assign, env: dict):
        v = self.expr(s.rhs, env)
        if v is MISSING:
            raise OracleError(f"missing value written to {s.lhs.base}")
        name = s.lhs.base
        dd = self.bindings[name]
        pos = 0
        for k, use in enumerate(s.lhs.idx):
            i = self._index(use, env, dd.dims[k])
            if i is MISSING:
                raise OracleError("missing index in an assignment target")
            if not (1 <= i <= dd.dims[k]):
                raise OracleError(f"write index {i} out of bounds for {name}")
            pos = pos * dd.dims[k] + (i - 1)
        arr = self.store[name]
        v = coerce(dd.dtype, v)
        if s.op == "set":
            arr[pos] = v
        else:
            arr[pos] = coerce(dd.dtype, apply_op(s.op, [arr[pos], v]))

    # -- expressions ----------------------------------------------------------

    def expr(self, e: Expr, env: dict):
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Var):
            if e.name.startswith("$"):
                if e.name[1:] not in self.params:
                    raise OracleError(f"unbound parameter {e.name}")
                return self.params[e.name[1:]]
            if e.name not in env:
                raise OracleError(f"unbound index {e.name!r}")
            return env[e.name]
        if isinstance(e, Access):
            return self.access(e, env)
        if isinstance(e, Call):
            return self.call(e, env)
        if isinstance(e, (Mod, Proto)):
            raise OracleError("index modifier outside an access")
        raise OracleError(f"cannot evaluate {e!r}")

    def call(self, e: Call, env: dict):
        op = e.op
        if op == "select":
            c = self.expr(e.args[0], env)
            if c is MISSING:
                return MISSING
            if not isinstance(c, bool):
                raise OracleError(SELECT_NOT_BOOL.format(value_repr(c)))
            return self.expr(e.args[1] if c else e.args[2], env)
        if op in ("and", "or"):
            halt = False if op == "and" else True
            saw_missing = False
            for a in e.args:
                v = self.expr(a, env)
                if v is halt:
                    return halt
                if v is MISSING:
                    saw_missing = True
                elif not isinstance(v, bool):
                    raise OracleError(f"{op} over non-boolean {value_repr(v)}")
            return MISSING if saw_missing else (not halt)
        args = [self.expr(a, env) for a in e.args]
        try:
            return apply_op(op, args)
        except EvalError as ex:
            raise OracleError(str(ex)) from None

    def access(self, e: Access, env: dict):
        name = e.base
        if not isinstance(name, str):
            raise OracleError("oracle accesses must name tensors directly")
        dd = self.bindings[name]
        pos = 0
        for k, use in enumerate(e.idx):
            i = self._index(use, env, dd.dims[k])
            if i is MISSING:
                return MISSING
            if not (1 <= i <= dd.dims[k]):
                raise OracleError(f"read index {i} out of bounds for {name} mode {k + 1}")
            pos = pos * dd.dims[k] + (i - 1)
        return self.store[name][pos]

    def _index(self, use: Expr, env: dict, size: int):
        """Evaluate one index use, applying modifiers innermost-first."""
        if isinstance(use, Proto):
            return self._index(use.inner, env, size)
        if isinstance(use, Mod):
            inner = self._index(use.inner, env, size)
            if inner is MISSING:
                return MISSING
            if use.kind == "window":
                lo = self.expr(use.params[0], env)
                return lo + inner - 1
            if use.kind == "offset":
                return inner - self.expr(use.params[0], env)
            if use.kind == "permit":
                return inner if 1 <= inner <= size else MISSING
            raise OracleError(f"unknown modifier {use.kind!r}")
        v = self.expr(use, env)
        if v is MISSING:
            return MISSING
        if isinstance(v, bool) or not isinstance(v, int):
            raise OracleError(f"index evaluated to non-integer {value_repr(v)}")
        return v


def max_rel_error(a: list, b: list) -> float:
    """Largest relative difference between two flat value lists."""
    worst = 0.0
    for x, y in zip(a, b):
        if x is MISSING or y is MISSING:
            if x is not y:
                return float("inf")
            continue
        if isinstance(x, bool) or isinstance(y, bool):
            if x is not y:
                return float("inf")
            continue
        d = abs(x - y)
        if d == 0:
            continue
        worst = max(worst, d / max(abs(x), abs(y), 1.0))
    return worst

