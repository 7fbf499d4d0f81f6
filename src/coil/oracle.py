"""Brute-force dense oracle: evaluates CIN directly over dense arrays.

The oracle is independent of the compiler. It imports only the CIN syntax
(`cin`, `expr`) and the scalar domain (`values`): no looplet, rewrite rule,
lowering pass or backend stands between a kernel and its reference result,
just nested loops and direct index arithmetic with the shared
missing/coalesce value semantics.

`evaluate` compiles the annotated kernel once, walking it a single time into
nested Python closures, and then runs them over the dense store. A `Forall`
binds its index in one environment shared by the whole run; each access has
its tensor's data and dims bound, each call its `values.OPS` function. The
closures raise only when they run, with the `OracleError` message of the
node that failed, so an error in code that never runs (a zero-trip loop, an
untaken branch) is never raised. Used by `check` and by every randomized
equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
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
from .expr import Call, Expr, Lit, Var, walk
from .values import MISSING, OPS, SELECT_NOT_BOOL, EvalError, apply_op, coercer, value_repr


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
    dims = {name: dd.dims for name, dd in bindings.items()}
    stmt = annotate_extents(stmt, dims)
    stmt, root_inits = assign_scopes(stmt)
    # a tensor the program initializes gets its own array, reset in place by
    # each init; the inputs it only reads are used as given
    owned = set(root_inits).union(*(n.inits for n in walk(stmt) if isinstance(n, Where)))
    store = {name: list(dd.data) if name in owned else dd.data
             for name, dd in bindings.items()}
    initialized: Dict[str, None] = {}
    compiler = _Compiler(bindings, store, params or {}, initialized)
    inits = [compiler.init(t) for t in root_inits]
    run = compiler.stmt(stmt, frozenset())
    for init in inits:
        init()
    run({})
    return {t: store[t] for t in initialized}


def _raises(message: str):
    """A closure that raises `OracleError(message)` when it runs."""
    def fail(*_):
        raise OracleError(message)
    return fail


class _Compiler:
    """Turns annotated CIN into closures over one dense store. Statement
    closures take the index environment and return nothing; expression
    closures take it and return a value. `scope` is the set of indices the
    enclosing foralls bind, so an index use is resolved once, here."""

    def __init__(self, bindings, store, params, initialized):
        self.bindings = bindings
        self.store = store
        self.params = params
        self.initialized = initialized

    def init(self, t: str):
        dd = self.bindings.get(t)
        if dd is None:
            return _raises(f"tensor {t!r} is written but not bound")
        arr, fill, size, initialized = self.store[t], dd.fill, dd.size(), self.initialized

        def init():
            arr[:] = [fill] * size
            initialized[t] = None
        return init

    # -- statements ---------------------------------------------------------

    def stmt(self, s: Stmt, scope: frozenset):
        if isinstance(s, Assign):
            return self.assign(s, scope)
        if isinstance(s, Forall):
            return self.forall(s, scope)
        if isinstance(s, Where):
            inits = [self.init(t) for t in s.inits]
            prod, cons = self.stmt(s.prod, scope), self.stmt(s.cons, scope)

            def where(env):
                for init in inits:
                    init()
                prod(env)
                cons(env)
            return where
        if isinstance(s, Multi):
            parts = [self.stmt(p, scope) for p in s.parts]

            def multi(env):
                for part in parts:
                    part(env)
            return multi
        if isinstance(s, Sieve):
            return self.sieve(s, scope)
        if isinstance(s, PassStmt):
            return _skip
        return _raises(f"cannot evaluate {s!r}")

    def forall(self, s: Forall, scope: frozenset):
        idx = s.idx
        start, stop = self.expr(s.ext.start, scope), self.expr(s.ext.stop, scope)
        body = self.stmt(s.body, scope | {idx})

        def forall(env):
            # restore what the loop shadows; a name no outer loop binds is
            # left bound, since only closures in this loop's scope read it
            outer = env.get(idx)
            for i in range(start(env), stop(env) + 1):
                env[idx] = i
                body(env)
            env[idx] = outer
        return forall

    def sieve(self, s: Sieve, scope: frozenset):
        cond, body = self.expr(s.cond, scope), self.stmt(s.body, scope)

        def sieve(env):
            c = cond(env)
            if c is True:
                body(env)
            elif c is MISSING:
                raise OracleError("missing value in a sieve condition")
            elif c is not False:
                raise OracleError("sieve condition must be boolean")
        return sieve

    def assign(self, s: Assign, scope: frozenset):
        rhs = self.expr(s.rhs, scope)
        name = s.lhs.base
        dd = self.bindings[name]
        arr, coerce = self.store[name], coercer(dd.dtype)
        pos = self.position(name, s.lhs.idx, dd.dims, scope, write=True)
        if s.op == "set":
            def assign(env):
                v = rhs(env)
                if v is MISSING:
                    raise OracleError(f"missing value written to {name}")
                i = pos(env)
                arr[i] = coerce(v)
            return assign
        combine = OPS.get(s.op) or partial(apply_op, s.op)

        def update(env):
            v = rhs(env)
            if v is MISSING:
                raise OracleError(f"missing value written to {name}")
            i = pos(env)
            arr[i] = coerce(combine([arr[i], coerce(v)]))
        return update

    # -- expressions ----------------------------------------------------------

    def expr(self, e: Expr, scope: frozenset):
        if isinstance(e, Lit):
            v = e.value
            return lambda env: v
        if isinstance(e, Var):
            name = e.name
            if name.startswith("$"):
                if name[1:] not in self.params:
                    return _raises(f"unbound parameter {name}")
                v = self.params[name[1:]]
                return lambda env: v
            if name not in scope:
                return _raises(f"unbound index {name!r}")
            return itemgetter(name)
        if isinstance(e, Access):
            return self.access(e, scope)
        if isinstance(e, Call):
            return self.call(e, scope)
        if isinstance(e, (Mod, Proto)):
            return _raises("index modifier outside an access")
        return _raises(f"cannot evaluate {e!r}")

    def call(self, e: Call, scope: frozenset):
        op = e.op
        args = [self.expr(a, scope) for a in e.args]
        if op == "select":
            return _select(*args)
        if op in ("and", "or"):
            return _logic(op, args)
        fn = OPS.get(op) or partial(apply_op, op)

        def call(env):
            vs = [a(env) for a in args]
            try:
                return fn(vs)
            except EvalError as ex:
                raise OracleError(str(ex)) from None
        return call

    def access(self, e: Access, scope: frozenset):
        name = e.base
        if not isinstance(name, str):
            return _raises("oracle accesses must name tensors directly")
        data = self.store[name]
        pos = self.position(name, e.idx, self.bindings[name].dims, scope, write=False)

        def read(env):
            i = pos(env)
            return MISSING if i is MISSING else data[i]
        return read

    def position(self, name: str, uses, dims, scope: frozenset, write: bool):
        """A closure computing the row-major position that the index `uses`
        address in a tensor of `dims`. An out-of-bounds index raises; a
        missing one makes a read missing and a write raise."""
        def out_of_bounds(k, i):
            if write:
                return OracleError(f"write index {i} out of bounds for {name}")
            return OracleError(f"read index {i} out of bounds for {name} mode {k + 1}")

        modes = [(self.index(u, d, scope), d) for u, d in zip(uses, dims)]

        def pos(env):
            p = 0
            for k, (index, d) in enumerate(modes):
                i = index(env)
                if i is MISSING:
                    if write:
                        raise OracleError("missing index in an assignment target")
                    return MISSING
                if not 1 <= i <= d:
                    raise out_of_bounds(k, i)
                p = p * d + (i - 1)
            return p
        return pos

    def index(self, use: Expr, size: int, scope: frozenset):
        """One index use, its modifiers applied innermost-first: the index,
        or missing."""
        if isinstance(use, Proto):
            return self.index(use.inner, size, scope)
        if isinstance(use, Mod):
            inner = self.index(use.inner, size, scope)
            kind = use.kind
            if kind == "window":
                lo = self.expr(use.params[0], scope)

                def window(env):
                    i = inner(env)
                    return MISSING if i is MISSING else lo(env) + i - 1
                return window
            if kind == "offset":
                delta = self.expr(use.params[0], scope)

                def offset(env):
                    i = inner(env)
                    return MISSING if i is MISSING else i - delta(env)
                return offset
            if kind == "permit":
                def permit(env):
                    i = inner(env)
                    return i if i is not MISSING and 1 <= i <= size else MISSING
                return permit

            def unknown(env):
                if inner(env) is MISSING:
                    return MISSING
                raise OracleError(f"unknown modifier {kind!r}")
            return unknown
        if isinstance(use, Var) and use.name in scope:
            return itemgetter(use.name)
        value = self.expr(use, scope)

        def index(env):
            v = value(env)
            if v is MISSING or type(v) is int:
                return v
            raise OracleError(f"index evaluated to non-integer {value_repr(v)}")
        return index


def _skip(env):
    pass


def _select(cond, then, other):
    def select(env):
        c = cond(env)
        if c is True:
            return then(env)
        if c is False:
            return other(env)
        if c is MISSING:
            return MISSING
        raise OracleError(SELECT_NOT_BOOL.format(value_repr(c)))
    return select


def _logic(op: str, args):
    """Short-circuit `and`/`or`: the first operand equal to `halt` decides;
    missing makes the result missing unless a later operand halts."""
    halt = op == "or"

    def logic(env):
        saw_missing = False
        for a in args:
            v = a(env)
            if v is halt:
                return halt
            if v is MISSING:
                saw_missing = True
            elif v is not (not halt):
                raise OracleError(f"{op} over non-boolean {value_repr(v)}")
        return MISSING if saw_missing else (not halt)
    return logic


def max_rel_error(a: list, b: list) -> float:
    """Largest relative difference between two flat value lists: inf where
    one side is nan, or inf, and the other is not the same; nan agrees with
    nan."""
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
        if x == y or x != x and y != y:
            continue
        d = abs(x - y)
        if d != d or d == float("inf"):  # one side nan, or an infinity apart
            return float("inf")
        worst = max(worst, d / max(abs(x), abs(y), 1.0))
    return worst
