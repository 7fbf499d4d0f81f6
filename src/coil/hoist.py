"""Loop-invariant code motion over the target IR.

`hoist` moves out of each `for` loop the expressions, and the whole `let`s,
that the loop computes again with the same value on every iteration. A value
moves only when all three of these hold:

1. It is invariant: it reads no name the loop assigns (its variable, or a
   `let` or assignment in its body) and no buffer the program writes.
2. The loop evaluates it on every iteration: in a statement its body always
   runs, outside the arms of a branch and the lazy operands of `&&`, `||`
   and `select`.
3. The point it moves to, just before the loop, runs only when the loop
   runs its body at least once: the range is a literal non-empty one, or
   the loop sits in the arm of a branch on exactly `lo <= hi`, whose names
   nothing has assigned since.

So the motion is never speculative: every moved value was computed at least
once, from the same operands, so a program fails exactly when it failed
before, and no count can grow. It may fail with another of its errors: a
moved value is now computed before the first iteration's earlier work, so
in `(A[i] * A[i] + 1) * ($p + 1)` an overflow of `$p + 1` is reported
before one of `A[i] * A[i]`. A value is moved only when it holds work the
interpreter counts (a read, a search or a counted operation), and a value
moved twice from one loop is bound once. A `let` moves whole when its name
is bound once in the program and never assigned; that name is then
invariant too. Moved values are bound, in order, to fresh `inv` names just
before the loop. Nothing moves out of a `while` loop: in the corpus, no
lowered `while` sits where it is known to run its body.

A branch on `lo <= hi` around a lone `for v = lo:hi` is dropped, since an
empty range runs nothing; it stays when code moved into it.

After one walk over the statements that counts the names they bind, the pass
is one bottom-up walk: each loop is rewritten after the loops in it, and
looks only at the statements its body always runs.
An expression is first only classified; it is rebuilt only when something
under it moves.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from .expr import Call, Expr, Lit, Var, free_vars, keep, le, walk
from .interp import OP_COUNTERS
from .target import (
    AssignVar,
    Block,
    For,
    IfChain,
    Let,
    TargetStmt,
    While,
    block,
)

_LAZY = ("and", "or", "select")  # only the first operand is always evaluated
_INVARIANT, _COSTLY, _INSIDE = 1, 2, 4  # what `_Motion.flags` finds
_MOVES = _INVARIANT | _COSTLY


def hoist(prog: TargetStmt, written, names) -> TargetStmt:
    """`prog` with loop invariants moved out of its loops. `written` holds
    the buffers the program writes; `names` hands out fresh names."""
    lets, fixed = Counter(), set()
    stack = [prog]
    while stack:  # the statements: what each binds or assigns
        s = stack.pop()
        t = type(s)
        if t is Let:
            lets[s.name] += 1
        elif t is AssignVar:
            fixed.add(s.name)
        elif t is Block:
            stack.extend(s.stmts)
        elif t is IfChain:
            stack.extend(body for _, body in s.cases)
            if s.orelse is not None:
                stack.append(s.orelse)
        elif t is For or t is While:
            stack.append(s.body)
    movable = {name for name, k in lets.items() if k == 1} - fixed
    out, _ = _Pass(frozenset(written), movable, names).seq([prog], None)
    return block(out)


class _Pass:
    def __init__(self, written, movable, names):
        self.written, self.movable, self.names = written, movable, names

    def seq(self, stmts, fact: Optional[Expr]) -> Tuple[List[TargetStmt], set]:
        """A statement list rewritten, and the names it binds or assigns. The
        list is entered where `fact` holds."""
        out: List[TargetStmt] = []
        assigned: set = set()
        for s in stmts:
            t = type(s)
            if t is Let or t is AssignVar:
                out.append(s)
                assigned.add(s.name)
                continue
            if t is IfChain:
                new, got = self.branch(s)
                out.append(new)
            elif t is For or t is While:
                nonempty = t is For and self.nonempty(s, _holds(fact, assigned))
                new, got = self.loop(s, nonempty)
                out.extend(new)
            elif t is Block:
                new, got = self.seq(s.stmts, _holds(fact, assigned))
                out.extend(new)
            else:
                out.append(s)
                continue
            assigned |= got
        return out, assigned

    def branch(self, s: IfChain) -> Tuple[TargetStmt, set]:
        """The branch with its arms rewritten; a branch on `lo <= hi` around
        a lone `for v = lo:hi` is the loop."""
        assigned: set = set()
        cases = []
        for cond, body in s.cases:
            new, got = self.seq([body], cond)
            cases.append((cond, body if _same(new, body) else block(new)))
            assigned |= got
        orelse = None
        if s.orelse is not None:
            new, got = self.seq([s.orelse], None)
            orelse = s.orelse if _same(new, s.orelse) else block(new)
            assigned |= got
        if orelse is None and len(cases) == 1:
            (cond, body), = cases
            if type(body) is For and _key(cond) == _key(le(body.lo, body.hi)):
                return body, assigned
        if orelse is s.orelse and all(a[1] is b[1] for a, b in zip(cases, s.cases)):
            return s, assigned
        return IfChain(tuple(cases), orelse), assigned

    def nonempty(self, loop: For, fact: Optional[Expr]) -> bool:
        """Whether `loop` runs its body at least once: its range is literal
        and non-empty, or `fact` is its `lo <= hi`."""
        lo, hi = loop.lo, loop.hi
        if type(lo) is Lit and type(hi) is Lit:
            return lo.value <= hi.value
        return fact is not None and _key(fact) == _key(le(lo, hi))

    def loop(self, s, nonempty: bool) -> Tuple[List[TargetStmt], set]:
        """The loop with the loops in it rewritten and, when it is a `for`
        that runs its body at least once, its invariants moved out."""
        body, assigned = self.seq([s.body], None)
        if type(s) is While:
            return [s if _same(body, s.body) else While(s.cond, block(body), s.cursor)], assigned
        assigned.add(s.var)
        pre: List[TargetStmt] = []
        if nonempty:
            motion = _Motion(self, assigned)
            body, pre = motion.body(body), motion.pre
        if not pre and _same(body, s.body):
            return [s], assigned
        return pre + [For(s.var, s.lo, s.hi, block(body))], assigned | {x.name for x in pre}


class _Motion:
    """The values moved out of one loop, which binds or assigns `assigned`."""

    def __init__(self, p: _Pass, assigned: set):
        self.p = p
        self.variant = set(assigned)  # less the lets moved out whole
        self.temps: dict = {}         # `_key` of a moved value -> its name
        self.pre: List[TargetStmt] = []

    def body(self, stmts: List[TargetStmt]) -> List[TargetStmt]:
        """The statements the loop body keeps; each runs on every iteration,
        and so does each expression of it outside branch arms and loop
        bodies, except the conditions of a branch after its first."""
        out = []
        for s in stmts:
            t = type(s)
            if t is Let or t is AssignVar:
                e = s.value
                f = 0 if type(e) is Var or type(e) is Lit else self.flags(e, True)
                if f & _MOVES == _MOVES and t is Let and s.name in self.p.movable:
                    self.pre.append(Let(s.name, self.reuse(e)))
                    self.variant.discard(s.name)
                    continue
                value = self.moved(e, f)
                out.append(s if value is e else t(s.name, value))
            elif t is IfChain:
                (cond, arm), *rest = s.cases
                new = self.strict(cond)
                out.append(s if new is cond else IfChain(((new, arm), *rest), s.orelse))
            else:
                exprs = [x for x in s.children() if not isinstance(x, TargetStmt)]
                new = [self.strict(x) for x in exprs]
                if all(a is b for a, b in zip(new, exprs)):
                    out.append(s)
                else:
                    it = iter(new)
                    out.append(s.map(lambda _: next(it), keep))
        return out

    def strict(self, e: Expr) -> Expr:
        """`e`, evaluated on every iteration, with its invariants moved out."""
        if type(e) is Var or type(e) is Lit:
            return e
        return self.moved(e, self.flags(e, True))

    def moved(self, e: Expr, f: int) -> Expr:
        """`e`, of flags `f`, with what moves out of it moved out."""
        if f & _MOVES == _MOVES:
            return self.temp(e)
        return self.rewrite(e) if f & _INSIDE else e

    def flags(self, e: Expr, strict: bool) -> int:
        """For a read, search or call `e`: _INVARIANT when it is invariant,
        _COSTLY when it holds counted work, and _INSIDE when it is not
        invariant but something under it moves out. Nothing moves out of a
        lazy operand, which is not `strict`."""
        if type(e) is Call:
            op = e.op
            f, lazy = _INVARIANT | (_COSTLY if op in OP_COUNTERS else 0), op in _LAZY
        else:
            f, lazy = _COSTLY | (_INVARIANT if e.buf not in self.p.written else 0), False
        inside = 0
        for i, k in enumerate(e.children()):
            t = type(k)
            if t is Var:
                if k.name in self.variant:
                    f &= ~_INVARIANT
            elif t is not Lit:
                s = strict and not (lazy and i)
                g = self.flags(k, s)
                f &= g | ~_INVARIANT
                f |= g & _COSTLY
                if s and (g & _MOVES == _MOVES or g & _INSIDE):
                    inside = _INSIDE
        return f if f & _INVARIANT else f | inside

    def rewrite(self, e: Expr) -> Expr:
        """`e`, a strict operand that `flags` finds something to move out of,
        with that moved out."""
        lazy = type(e) is Call and e.op in _LAZY
        new = []
        for i, k in enumerate(e.children()):
            if type(k) is not Var and type(k) is not Lit and not (lazy and i):
                k = self.moved(k, self.flags(k, True))
            new.append(k)
        it = iter(new)
        return e.map(lambda _: next(it))

    def temp(self, e: Expr) -> Var:
        """A name bound, before the loop, to the invariant `e`."""
        key = _key(e)
        name = self.temps.get(key)
        if name is None:
            value = self.reuse(e)
            name = self.temps[key] = self.p.names.fresh("inv")
            self.pre.append(Let(name, value))
        return Var(name)

    def reuse(self, e: Expr) -> Expr:
        """`e` with each value already bound before the loop read by name."""
        if not self.temps:
            return e
        name = self.temps.get(_key(e))
        if name is not None:
            return Var(name)
        return e.map(self.reuse) if e.children() else e


def _same(stmts: List[TargetStmt], s: TargetStmt) -> bool:
    """Whether the list `stmts` holds the statements of `s` themselves."""
    old = s.stmts if type(s) is Block else (s,)
    return len(stmts) == len(old) and all(a is b for a, b in zip(stmts, old))


def _key(e: Expr):
    """`e` as a key that tells literal types apart, as `Expr` equality does
    not: `Lit(1) == Lit(1.0) == Lit(True)`, but `$p + 1` and `$p + 1.0` are
    different values."""
    return e, tuple(type(n.value) for n in walk(e) if type(n) is Lit)


def _holds(fact: Optional[Expr], assigned: set) -> Optional[Expr]:
    """`fact`, when none of its names is in `assigned`."""
    return fact if fact is not None and assigned.isdisjoint(free_vars(fact)) else None
