"""Deterministic interpreter for the target IR, with operation counters.

Buffers hold flat value lists addressed 1-based. Writers realize output
tensors: dense writers are plain buffers, append writers (sparse list /
run-length) accept ascending-index writes and seal their position structure
on finalize.

The runtime checks (loop bounds, branch, while and select conditions, `&&`
and `||` operands, cursor progress), the binary search, the buffer write and
the writer hooks are defined once, here, as the module's `_range`, `_truth`,
`_loop`, `_sel`, `_lv`, `_stuck`, `_search`, `_write` and `_hook`. `Machine`
calls them, and so does the code that `codegen` generates, so both backends
raise the same `InterpError` messages. The messages of the errors a malformed
program raises (an unbound name, an unknown buffer, an unlinearized access)
are this module's constants, which both backends format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .expr import Call, Expr, Lit, Read, Search, Var
from .target import (
    AssignVar,
    Block,
    BufferWrite,
    CallStmt,
    For,
    IfChain,
    Let,
    Nop,
    TargetStmt,
    While,
)
from .values import MISSING, SELECT_NOT_BOOL, EvalError, apply_op, coerce, value_repr


class InterpError(Exception):
    pass


# Messages of the errors that a malformed program raises, in both backends
UNBOUND = "unbound symbol {!r}"
UNKNOWN_BUFFER = "unknown buffer {!r}"
READ_NOT_LINEAR = "buffer read of {} must be linearized"
WRITE_NOT_LINEAR = "buffer writes must be linearized"
UNDECLARED = "assignment to undeclared variable {!r}"
CANNOT_EVAL = "cannot evaluate {!r}"
CANNOT_EXEC = "cannot execute {!r}"
NO_WRITER = "no writer bound for output {!r}"
READ_ONLY = "write to read-only input buffer {!r}"


@dataclass
class ExecCounters:
    loop_iterations: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    multiplies: int = 0
    adds: int = 0
    searches: int = 0
    compares: int = 0
    reads_by_buffer: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "loop_iterations": self.loop_iterations,
            "buffer_reads": self.buffer_reads,
            "buffer_writes": self.buffer_writes,
            "multiplies": self.multiplies,
            "adds": self.adds,
            "searches": self.searches,
            "compares": self.compares,
            "reads_by_buffer": dict(sorted(self.reads_by_buffer.items())),
        }


SCALARS = frozenset({int, float, bool})
INTS = frozenset({int})


def scan_facts(data, types=None) -> tuple:
    """The facts of a buffer's values: (the set of their types, (min, max)
    when they are all ints else ()), or (None, None) when a value is not a
    scalar, such as missing. The types are read from every value unless they
    are given."""
    ts = frozenset(map(type, data) if types is None else types)
    if not ts <= SCALARS:
        return (None, None)
    return (ts, (min(data), max(data)) if ts == INTS else ())


class Buf:
    """Flat 1-based value buffer with a dtype used to coerce writes.

    `facts`, when given, is a function of no arguments that returns the facts
    of the values the buffer is built with, as `scan_facts` reads them; the
    storage level that holds those values records them (`Level.facts`).

    A buffer holds a copy of `data`, unless it is `readonly`: an input's
    buffer holds its level's array itself, and a program that writes it
    raises `READ_ONLY` before anything is written."""

    __slots__ = ("name", "data", "dtype", "facts", "readonly")

    def __init__(self, name: str, data: List, dtype: Optional[str] = None, facts=None,
                 readonly: bool = False):
        self.name = name
        self.data = data if readonly else list(data)
        self.dtype = dtype
        self.facts = facts
        self.readonly = readonly

    def get(self, i: int):
        if not isinstance(i, int) or isinstance(i, bool) or not (1 <= i <= len(self.data)):
            raise InterpError(f"out-of-bounds read {self.name}[{i}] (size {len(self.data)})")
        return self.data[i - 1]

    def set(self, i: int, v):
        if not isinstance(i, int) or isinstance(i, bool) or not (1 <= i <= len(self.data)):
            raise InterpError(f"out-of-bounds write {self.name}[{i}] (size {len(self.data)})")
        self.data[i - 1] = v

    def __len__(self):
        return len(self.data)

    def initial_facts(self) -> tuple:
        """The facts of the values the buffer was built with: recorded, or
        read from its data."""
        return scan_facts(self.data) if self.facts is None else self.facts()


# -- runtime checks, search, write and writer hooks: both backends call these ---------


def _range(lo, hi):
    if not isinstance(lo, int) or not isinstance(hi, int):
        raise InterpError("for bounds must be integers")
    return range(lo, hi + 1)


def _truth(c, what):
    if c is MISSING:
        raise InterpError(f"missing value in {what}")
    if not isinstance(c, bool):
        raise InterpError(f"{what} must be boolean")
    return c


def _loop(c):
    if c is MISSING or not isinstance(c, bool):
        raise InterpError("while condition must be boolean")
    return c


def _sel(c):
    if not isinstance(c, bool):
        raise InterpError(SELECT_NOT_BOOL.format(value_repr(c)))
    return c


def _lv(v, op):
    if v is MISSING or isinstance(v, bool):
        return v
    raise InterpError(f"{op} over non-boolean {value_repr(v)}")


def _stuck(name, cur):
    raise InterpError(f"loop cursor {name!r} did not advance (stuck at {cur})")


def _search(buf, lo, hi, key):
    """First position in [lo, hi + 1] whose value is >= key, by bisection;
    every probe is bounds-checked."""
    a, b = lo, hi + 1
    while a < b:
        mid = (a + b) // 2
        if buf.get(mid) >= key:
            b = mid
        else:
            a = mid + 1
    return a


def _write(buf, i, op, v):
    """Write the evaluated value `v` at `i`: set it, or combine it with the
    old value by `op`."""
    if buf.readonly:
        raise InterpError(READ_ONLY.format(buf.name))
    if v is MISSING:
        raise InterpError(f"missing value reached a write to {buf.name}")
    try:
        if buf.dtype is not None:
            v = coerce(buf.dtype, v)
        if op != "set":
            v = apply_op(op, [buf.get(i), v])
    except EvalError as ex:
        raise InterpError(str(ex)) from None
    buf.set(i, v)


def _hook(writer, fn, args):
    """Call the hook `fn` ("T.init", "T.finalize", "T.append_OP" or
    "T.run_set") of `writer`, the writer of output T. Returns the number of
    buffer writes it counts as: 1 for an append, what the writer returns for
    a run, 0 for the other hooks."""
    tensor, _, action = fn.partition(".")
    if writer is None:
        raise InterpError(NO_WRITER.format(tensor))
    if action == "init":
        writer.init()
    elif action == "finalize":
        writer.finalize()
    elif action.startswith("append_") or action == "run_set":
        if any(a is MISSING for a in args):
            raise InterpError(f"missing value reached a write to {tensor}")
        if action == "run_set":
            return writer.run_set(args[:-3], args[-3], args[-2], args[-1])
        writer.append(args[:-1], action[len("append_"):], args[-1])
        return 1
    else:
        raise InterpError(f"unknown writer hook {fn!r}")
    return 0


# The counter each counted op adds to, and the least it adds: an op over n
# operands adds max(n - 1, least). Both backends count by this table.
OP_COUNTERS = {"mul": ("multiplies", 0), "add": ("adds", 0), "sub": ("adds", 1),
               **dict.fromkeys(("eq", "ne", "lt", "le", "gt", "ge", "min", "max"),
                               ("compares", 1))}


class Scope:
    __slots__ = ("frames",)

    def __init__(self, base: Optional[dict] = None):
        self.frames = [dict(base or {})]

    def push(self):
        self.frames.append({})

    def pop(self):
        self.frames.pop()

    def lookup(self, name: str):
        for fr in reversed(self.frames):
            if name in fr:
                return fr[name]
        raise InterpError(UNBOUND.format(name))

    def define(self, name: str, v):
        self.frames[-1][name] = v

    def assign(self, name: str, v):
        for fr in reversed(self.frames):
            if name in fr:
                fr[name] = v
                return
        raise InterpError(UNDECLARED.format(name))


class Machine:
    def __init__(self, buffers: Dict[str, Buf], params: Optional[dict] = None,
                 writers: Optional[dict] = None):
        self.buffers = buffers
        self.vars = Scope(params)
        self.writers = writers or {}
        self.counters = ExecCounters()

    # -- expressions ------------------------------------------------------

    def eval(self, e: Expr):
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Var):
            return self.vars.lookup(e.name)
        if isinstance(e, Read):
            if e.buf not in self.buffers:
                raise InterpError(UNKNOWN_BUFFER.format(e.buf))
            if len(e.idx) != 1:
                raise InterpError(READ_NOT_LINEAR.format(e.buf))
            i = self.eval(e.idx[0])
            v = self.buffers[e.buf].get(i)
            self.counters.buffer_reads += 1
            rb = self.counters.reads_by_buffer
            rb[e.buf] = rb.get(e.buf, 0) + 1
            return v
        if isinstance(e, Search):
            buf = self.buffers[e.buf]
            self.counters.searches += 1
            return _search(buf, self.eval(e.lo), self.eval(e.hi), self.eval(e.key))
        if isinstance(e, Call):
            return self._call(e)
        raise InterpError(CANNOT_EVAL.format(e))

    def _call(self, e: Call):
        op = e.op
        if op == "select":
            c = self.eval(e.args[0])
            if c is MISSING:
                return MISSING
            return self.eval(e.args[1] if _sel(c) else e.args[2])
        if op in ("and", "or"):
            halt = False if op == "and" else True
            saw_missing = False
            for a in e.args:
                v = _lv(self.eval(a), op)
                if v is halt:
                    return halt
                if v is MISSING:
                    saw_missing = True
            return MISSING if saw_missing else (not halt)
        args = [self.eval(a) for a in e.args]
        try:
            v = apply_op(op, args)
        except EvalError as ex:
            raise InterpError(str(ex)) from None
        counted = OP_COUNTERS.get(op)
        if counted is not None:
            key, least = counted
            setattr(self.counters, key, getattr(self.counters, key) + max(len(args) - 1, least))
        return v

    # -- statements -------------------------------------------------------

    def exec(self, s: TargetStmt):
        if isinstance(s, Nop):
            return
        if isinstance(s, Block):
            for x in s.stmts:
                self.exec(x)
            return
        if isinstance(s, Let):
            self.vars.define(s.name, self.eval(s.value))
            return
        if isinstance(s, AssignVar):
            self.vars.assign(s.name, self.eval(s.value))
            return
        if isinstance(s, BufferWrite):
            if len(s.idx) != 1:
                raise InterpError(WRITE_NOT_LINEAR)
            buf = self.buffers[s.buf]
            _write(buf, self.eval(s.idx[0]), s.op, self.eval(s.value))
            self.counters.buffer_writes += 1
            return
        if isinstance(s, For):
            for i in _range(self.eval(s.lo), self.eval(s.hi)):
                self.counters.loop_iterations += 1
                self.vars.push()
                self.vars.define(s.var, i)
                try:
                    self.exec(s.body)
                finally:
                    self.vars.pop()
            return
        if isinstance(s, While):
            prev_cursor = None
            while True:
                if not _loop(self.eval(s.cond)):
                    return
                self.counters.loop_iterations += 1
                if s.cursor is not None:
                    cur = self.vars.lookup(s.cursor)
                    if prev_cursor is not None and not cur > prev_cursor:
                        _stuck(s.cursor, cur)
                    prev_cursor = cur
                self.vars.push()
                try:
                    self.exec(s.body)
                finally:
                    self.vars.pop()
        if isinstance(s, IfChain):
            for cond, body in s.cases:
                if _truth(self.eval(cond), "branch condition"):
                    self.vars.push()
                    try:
                        self.exec(body)
                    finally:
                        self.vars.pop()
                    return
            if s.orelse is not None:
                self.vars.push()
                try:
                    self.exec(s.orelse)
                finally:
                    self.vars.pop()
            return
        if isinstance(s, CallStmt):
            writer = self.writers.get(s.fn.partition(".")[0])
            args = [] if writer is None else [self.eval(a) for a in s.args]
            self.counters.buffer_writes += _hook(writer, s.fn, args)
            return
        raise InterpError(CANNOT_EXEC.format(s))


def run_program(prog: TargetStmt, buffers: Dict[str, Buf], params: Optional[dict] = None,
                writers: Optional[dict] = None) -> Machine:
    m = Machine(buffers, params=params, writers=writers)
    m.exec(prog)
    return m
