"""Generated-Python execution backend for the target IR.

`run_program` turns a target-IR program into the source of one Python
function, compiles it with `exec` and runs it on the interpreter's `Buf`s and
writers. The interpreter (`interp.py`) stays the reference: the generated code
raises `InterpError` wherever the interpreter does, leaves the same values in
every buffer and writer, and yields the same `ExecCounters`. The runtime
checks, the binary search, the buffer write, the writer hooks and the messages
of malformed-program errors are defined once, in `interp.py`; the generated
code calls those functions, so both backends raise the same messages.

Code is generated once per program and runtime facts, and reused. Generation
reads the runtime state only through one table (`_Facts`): each buffer's
dtype, length and value facts (types, and bounds of int values), the buffers
append writers grow and the read-only ones, each writer's class and buffer
names, and each parameter's facts. A program's `api.Lowered` entry keeps one
compiled `_run`, with the key of the table it was generated under, and
`generated` reuses it for a later state whose table is equal in type and
value, so a program run again on inputs of the same structure skips
generation and `compile`. The code is replaced when the facts change, and
goes with its entry when the program cache (`api.PROGRAMS`) replaces or
evicts the program. Building the table is the guard, and it reads an input
buffer's value facts from its storage level (`Level.facts`), which records
them at assembly or scans the array once and keeps the result; only
writers' buffers and buffers built without a level are scanned on every run.
A write to a read-only buffer compiles to the error the interpreter raises.

- Flat code. The code is three-address: every operand is evaluated, in the
  interpreter's order, into a name, a literal or a temporary on a line of its
  own, and each line applies one operation to such operands. Short-circuit
  arms (`&&`, `||`, `select`) and the `min`/`max`/`coalesce` folds are `if`
  statements, one per operand, so operand count and depth cost statements,
  not nested parentheses. A `while` or later `elif` condition that needs
  statements of its own is tested at the top of a `while True:` loop, or in
  an `if` group entered while no earlier case has been taken.
- Reuse. A value computed into a temporary is reused by a later evaluation
  of the same code, such as a read of the same buffer at the same index,
  when the first evaluation dominates the second and no name in the code
  has been assigned, and no buffer in it written, in between. A loop body
  starts with nothing to reuse, and what a branch computes is not reused
  after it, so no evaluation moves above the condition that guards it and
  every error is raised where the interpreter raises it. Reused reads share
  one bounds check; the walk loops read each cursor's index once per
  iteration.
- Scoping. Every `Let`, `For` variable and parameter gets its own Python
  local, resolved by the interpreter's scope rules while the code is
  generated; a name that is unbound there becomes a call that raises when
  it is reached.
- Types. A fixpoint over locals and written buffers infers each value's
  possible types (int, float, bool; `None` is "any", which is how missing
  enters) and, for ints, an interval. Buffer data, parameter values and
  literals seed it. Native Python is emitted where the operands are proven
  int, float or bool; float `mul` keeps `apply_op`'s absorbing zero, int
  results not proven in range get an overflow check and indexes not proven
  in bounds get a bounds check. Everything else goes through `apply_op`.
- Counting. Statements at one nesting level run together, so their static
  counts are charged to one site that is bumped once per entry (a `For` body
  by its trip count, up front). Later `elif` conditions are charged to the
  enclosing site minus the earlier cases; arms of `&&`, `||` and `select`
  have their own sites, bumped only when evaluated. The counters are the
  sum of site bumps times site counts; reusing a value changes no count.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from typing import Dict, Optional

from .api import Lowered, _same
from .expr import Call, Lit, Read, Search, Var
from .interp import (CANNOT_EVAL, CANNOT_EXEC, INTS as _I, NO_WRITER, OP_COUNTERS,
                     READ_NOT_LINEAR, READ_ONLY, SCALARS as _SCALARS, UNBOUND, UNDECLARED,
                     UNKNOWN_BUFFER, WRITE_NOT_LINEAR, Buf, ExecCounters, InterpError, _hook,
                     _loop, _lv, _range, _search, _sel, _stuck, _truth, _write)
from .target import AssignVar, Block, BufferWrite, CallStmt, For, IfChain, Let, Nop, While
from .values import INT_MAX, INT_MIN, MISSING, EvalError, apply_op

# Facts about a value are (types, interval), as `interp.scan_facts` reads them
# from a buffer. Types is a frozenset of int, float and bool, or None for "any"
# (missing included). The interval bounds an int: (lo, hi), () while there is
# no value yet, None when unknown.
_F, _B = frozenset({float}), frozenset({bool})
_NONE = frozenset()  # no value yet (or never: the expression raises)
_FULL = (INT_MIN, INT_MAX)
_ANY = (None, None)
_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
# a name or a literal: evaluating it cannot raise or count, so the code may
# repeat or skip it
_PURE = re.compile(r"[A-Za-z_]\w*|\(?-?\d[\w.+-]*\)?").fullmatch

# -- the generated code's globals: these helpers, and interp's runtime checks -------


def _fail(msg):
    raise InterpError(msg)


def _ck(v):
    if INT_MIN <= v <= INT_MAX:
        return v
    raise InterpError(f"integer overflow: {v}")


def _op(op, *args):
    try:
        return apply_op(op, list(args))
    except EvalError as ex:
        raise InterpError(str(ex)) from None


def _isearch(buf, lo, hi, key):
    """Int key over int data: bisect probes the same positions as `_search`."""
    if 1 <= lo <= hi <= len(buf.data):
        return bisect_left(buf.data, key, lo - 1, hi) + 1
    return _search(buf, lo, hi, key)


def _keyerror(name):
    raise KeyError(name)


_GLOBALS = {f.__name__: f for f in (_fail, _ck, _op, _range, _truth, _loop, _sel, _lv, _stuck,
                                    _search, _isearch, _write, _hook, _keyerror)}
_GLOBALS["MISSING"] = MISSING

# -- facts -----------------------------------------------------------------------------


def _tjoin(a, b):
    return None if a is None or b is None else a | b


def _ijoin(a, b):
    if a == ():
        return b
    if b == () or a is None or b is None:
        return a if b == () else None
    return (min(a[0], b[0]), max(a[1], b[1]))


def _join(f, g):
    return (_tjoin(f[0], g[0]), _ijoin(f[1], g[1]))


def _fits(iv, lo=INT_MIN, hi=INT_MAX) -> bool:
    return bool(iv) and lo <= iv[0] and iv[1] <= hi


def _lit_facts(v):
    if type(v) is int:
        return (_I, (v, v))
    if type(v) in (float, bool):
        return (frozenset({type(v)}), ())
    return _ANY


def _numeric(tss):
    """Result types of add/sub/neg/mul/mod/abs: float if some operand may be
    float, int if every operand may be int or bool."""
    out = set()
    if all(t & {int, bool} for t in tss):
        out.add(int)
    if any(float in t for t in tss):
        out.add(float)
    return frozenset(out)


def _result_types(op, tss):
    """Possible types of apply_op(op, ...) over operands of types `tss`."""
    if any(t is None for t in tss):
        return None
    if any(not t for t in tss):
        return _NONE
    if op in ("add", "sub", "neg", "mul", "mod", "abs"):
        return _numeric(tss)
    if op in ("min", "max"):
        return frozenset(int if x is bool else x for t in tss for x in t)
    if op == "round":
        return frozenset(int if x is bool else x for x in tss[0])
    if op == "sqrt":
        return _F
    if op in _CMP or op in ("and", "or", "not"):
        return _B
    if op == "coalesce" and tss:
        return tss[0]
    return None


def _interval(op, ivs):
    if any(iv is None for iv in ivs):
        return None
    if any(iv == () for iv in ivs):
        return ()
    if op == "add":
        return (sum(iv[0] for iv in ivs), sum(iv[1] for iv in ivs))
    if op == "sub":
        (a, b), (c, d) = ivs
        return (a - d, b - c)
    if op == "neg":
        return (-ivs[0][1], -ivs[0][0])
    if op == "mul":
        lo = hi = 1
        for a, b in ivs:
            ends = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(ends), max(ends)
        return (lo, hi)
    pick = min if op == "min" else max
    return (pick(iv[0] for iv in ivs), pick(iv[1] for iv in ivs))


def _literal(v, consts) -> str:
    if type(v) is bool or (type(v) is int) or (type(v) is float and v - v == 0):
        text = repr(v)
        return f"({text})" if text.startswith("-") else text
    consts.append(v)
    return f"_c{len(consts) - 1}"


class _E:
    """An emitted expression: its code and facts. The code is a name, a
    literal or one operation over names and literals."""

    __slots__ = ("code", "ts", "iv")

    def __init__(self, code, ts, iv=None):
        self.code, self.ts, self.iv = code, ts, iv


@lru_cache(maxsize=4096)
def _names(code):
    return tuple(sorted(set(re.findall(r"[A-Za-z_]\w*", code))))


class _Facts:
    """Every fact about the runtime state that generation reads, and nothing
    else; generation reads the state only through this table.

    For each buffer: its dtype, its length and the facts of its values (types
    and int interval, or "any" where append writers grow the buffer or it
    holds a non-scalar), as recorded with the buffer or else scanned
    (`Buf.initial_facts`); the buffers append writers grow; the read-only
    buffers, which the code must not write; each writer's
    class and buffer names; each parameter's facts. `key` flattens the table,
    with the size of each part first, so two states whose keys are equal
    element by element, in type and value, get the same code."""

    def __init__(self, buffers: Dict[str, Buf], writers: dict, params: dict):
        # append writers grow their buffers; reads of them go through Buf.get
        self.dynamic = frozenset(name for w in writers.values() if w.appends
                                 for name in w.buffers)
        self.bufs = {name: (b.dtype, len(b.data),
                            _ANY if name in self.dynamic else b.initial_facts())
                     for name, b in buffers.items()}
        self.readonly = frozenset(name for name, b in buffers.items() if b.readonly)
        self.writers = {name: tuple(w.buffers) for name, w in writers.items()}
        self.params = {name: _lit_facts(v) for name, v in params.items()}
        self.key = (len(self.bufs), len(writers), len(self.params),
                    *(x for name, (dtype, size, (ts, iv)) in self.bufs.items()
                      for x in (name, name in self.dynamic, name in self.readonly,
                                dtype, size, ts, iv)),
                    *(x for name, w in writers.items() for x in (name, type(w), self.writers[name])),
                    *(x for name, f in self.params.items() for x in (name, *f)))


# -- generation ------------------------------------------------------------------------


class _Gen:
    """One generation pass. Facts of locals are read from `env` (the previous
    pass) joined with what this pass has assigned so far.

    `avail` maps each value computed into a temporary, by its code and the
    versions of the names in it, to that temporary; it holds only values
    whose evaluation dominates the code being emitted. `ver` counts the
    assignments to each reassigned local and the writes to each buffer's
    aliases, so that a value over a name assigned since is not reused."""

    def __init__(self, table: _Facts, env: dict):
        self.table, self.env = table, env
        self.facts = {}
        self.lines = []
        self.ind = 1
        self.sites = [Counter()]  # site 0: the function body, entered once
        self.site = 0
        self.ntmp = self.nloc = 0
        self.consts = []
        self.aliases = {}  # buffer or writer name -> prologue alias
        self.avail = {}
        self.ver = {}
        self.used = set()  # locals read by the value being assigned
        base = {}
        for k, (name, f) in enumerate(table.params.items()):
            loc = f"p{k}_{re.sub(r'[^A-Za-z0-9]', '_', name)}"
            base[name] = loc
            self.facts[loc] = f
        self.params = dict(base)
        self.scope = [base]

    # -- helpers

    def emit(self, line):
        self.lines.append("    " * self.ind + line)

    @staticmethod
    def fail(msg):
        """Code that raises InterpError(msg) when it is reached."""
        return _E("_fail(%r)" % msg, _NONE, ())

    def fresh(self):
        self.ntmp += 1
        return f"t{self.ntmp}"

    def local(self, code, checked=False):
        """A name or literal holding the value of `code`, evaluated now: the
        code itself, the temporary of an available evaluation of it, or a new
        temporary. `checked` adds the int overflow check."""
        if _PURE(code) and not checked:
            return code
        key = f"_ck({code})" if checked else code
        names = _names(code)
        if not self.ver.keys().isdisjoint(names):
            key = (key, tuple(self.ver.get(n, 0) for n in names))
        t = self.avail.get(key)
        if t is None:
            t = self.fresh()
            self.emit(f"{t} = {code}")
            if checked:
                self.emit(f"if not {INT_MIN} <= {t} <= {INT_MAX}: _ck({t})")
            self.avail[key] = t
        return t

    def bump(self, name):
        self.ver[name] = self.ver.get(name, 0) + 1

    def written(self, buf):
        """Values read from `buf` before this point are stale."""
        for kind in "bd":
            alias = self.aliases.get((kind, buf))
            if alias:
                self.bump(alias)

    def operands(self, es):
        """Each of `es` evaluated, in order, into a name or literal."""
        out = []
        for e in es:
            x = self.expr(e)
            x.code = self.local(x.code)
            out.append(x)
        return out

    def new_site(self, **vec):
        self.sites.append(Counter(vec))
        return len(self.sites) - 1

    def count(self, key, n=1):
        self.sites[self.site][key] += n

    def charge(self, site, vec, sign=1):
        for key, n in vec.items():
            self.sites[site][key] += sign * n

    def fact(self, loc):
        return _join(self.env.get(loc, (_NONE, ())), self.facts.get(loc, (_NONE, ())))

    def assign(self, loc, e, widen=False):
        """Join the facts of `e` into those of `loc`. With `widen`, `e` was
        computed from `loc` itself: an interval that grows by it would grow
        again in every pass, so it is widened now, not a pass later."""
        old = self.facts.get(loc, (_NONE, ()))
        new = _join(old, (e.ts, e.iv))
        if widen and old[1] and new[1] != old[1]:
            new = (new[0], None)
        self.facts[loc] = new

    def lookup(self, name):
        for frame in reversed(self.scope):
            if name in frame:
                return frame[name]
        return None

    def define(self, name):
        """A new local for `name`; locals are numbered apart from temporaries,
        so that their names, which key the facts, do not change from pass to
        pass."""
        self.nloc += 1
        loc = f"v{self.nloc}_{re.sub(r'[^A-Za-z0-9]', '_', name)}"
        self.scope[-1][name] = loc
        return loc

    def alias(self, name, kind):
        key = (kind, name)
        if key not in self.aliases:
            self.aliases[key] = f"{kind}{len(self.aliases)}"
        return self.aliases[key]

    def buf_facts(self, name):
        ts, iv = self.table.bufs[name][2]
        written = self.env.get(("w", name))
        return (ts, iv) if written is None else (_tjoin(ts, written), None)

    def branch(self, head, site, fill, avail=None):
        """Emit `head`, then `fill()` one level deeper, charging `site`, in a
        region of its own: values it computes are not available after it. The
        site is bumped on entry when it counts anything."""
        self.emit(head)
        outer, self.site = self.site, site
        saved, self.avail = self.avail, dict(self.avail if avail is None else avail)
        self.ind += 1
        mark = len(self.lines)
        fill()
        if any(self.sites[site].values()):
            self.lines.insert(mark, "    " * self.ind + f"k{site} += 1")
        elif len(self.lines) == mark:
            self.emit("pass")
        self.ind -= 1
        self.avail = saved
        self.site = outer

    def arm(self, head, e, then):
        """A short-circuit arm: `e` evaluated under `head` only, counted on its
        own site, and passed to `then`, which emits what uses it."""
        self.branch(head, self.new_site(), lambda: then(self.expr(e)))

    def detached(self, e):
        """Emit `e` one level deeper into lines of its own, counting it on a
        site of its own; returns the expression, its lines and its counts."""
        lines, self.lines = self.lines, []
        outer, self.site = self.site, self.new_site()
        self.ind += 1
        x = self.expr(e)
        self.ind -= 1
        counts = Counter(self.sites[self.site])
        self.sites[self.site].clear()
        self.site = outer
        pre, self.lines = self.lines, lines
        return x, pre, counts

    # -- expressions

    def expr(self, e) -> _E:
        emit = self.EXPRS.get(type(e))
        return self.fail(CANNOT_EVAL.format(e)) if emit is None else emit(self, e)

    def lit(self, e):
        ts, iv = _lit_facts(e.value)
        return _E(_literal(e.value, self.consts), ts, iv)

    def var(self, e):
        loc = self.lookup(e.name)
        if loc is None:
            return self.fail(UNBOUND.format(e.name))
        self.used.add(loc)
        return _E(loc, *self.fact(loc))

    def slot(self, i, size):
        """List position of the 1-based int index `i` when it is proven in
        [1, size], else None."""
        if i.ts != _I or not _fits(i.iv, 1, size):
            return None
        if _PURE(i.code) and i.iv[0] == i.iv[1]:
            return str(i.iv[0] - 1)
        return f"{self.local(i.code)} - 1"

    def read(self, e):
        if e.buf not in self.table.bufs:
            return self.fail(UNKNOWN_BUFFER.format(e.buf))
        if len(e.idx) != 1:
            return self.fail(READ_NOT_LINEAR.format(e.buf))
        i = self.expr(e.idx[0])
        self.count("buffer_reads")
        self.count(("reads", e.buf))
        ts, iv = self.buf_facts(e.buf)
        b = self.alias(e.buf, "b")
        if i.ts != _I or e.buf in self.table.dynamic:
            code = f"{b}.get({self.local(i.code)})"
        else:
            d, n = self.alias(e.buf, "d"), self.alias(e.buf, "n")
            slot = self.slot(i, self.table.bufs[e.buf][1])
            if slot is None:
                ref = self.local(i.code)
                code = f"{d}[{ref} - 1] if 0 < {ref} <= {n} else {b}.get({ref})"
            else:
                code = f"{d}[{slot}]"
        return _E(self.local(code), ts, iv)

    def search(self, e):
        if e.buf not in self.table.bufs:
            return _E(f"_keyerror({e.buf!r})", _NONE, ())
        lo, hi, key = self.operands((e.lo, e.hi, e.key))
        self.count("searches")
        b = self.alias(e.buf, "b")
        fast = (lo.ts == hi.ts == key.ts == _I and self.buf_facts(e.buf)[0] == _I
                and e.buf not in self.table.dynamic)
        code = f"{'_isearch' if fast else '_search'}({b}, {lo.code}, {hi.code}, {key.code})"
        if lo.ts == hi.ts == _I:  # the result is lo or lies in [lo, hi + 1]
            iv = _interval("max", [lo.iv, _interval("add", [hi.iv, (1, 1)])])
            return _E(code, _I, iv and (lo.iv[0], iv[1]))
        return _E(code, None)

    def call(self, e):
        op, n = e.op, len(e.args)
        if op == "select" and n == 3:
            return self.select(e)
        if op in ("and", "or"):
            return self.logic(op, e.args)
        args = self.operands(e.args)
        counted = OP_COUNTERS.get(op)
        if counted is not None:
            self.count(counted[0], max(n - 1, counted[1]))
        tss = [a.ts for a in args]
        ts = _result_types(op, tss)
        num = n >= 1 and all(t in (_I, _F) for t in tss)
        codes = [a.code for a in args]
        if num and (op in ("add", "mul") and n >= 2 or op == "sub" and n == 2
                    or op == "neg" and n == 1):
            if op == "mul" and ts == _F:
                return _E(f"{' * '.join(codes)} if {' and '.join(codes)} else 0.0", ts, ())
            sym = {"add": " + ", "sub": " - ", "mul": " * "}.get(op)
            code = sym.join(codes) if sym else f"-{codes[0]}"
            if ts != _I:
                return _E(code, ts, ())
            iv = _interval(op, [a.iv for a in args])
            if not _fits(iv):
                return _E(self.local(code, checked=True), ts, _FULL)
            return _E(code, ts, iv)
        if num and op in ("min", "max") and n >= 2:
            return self.minmax(op, codes, _interval(op, [a.iv for a in args]) if ts == _I else (),
                               ts)
        if op in _CMP and n == 2 and all(t and t <= _SCALARS for t in tss):
            return _E(f"{codes[0]} {_CMP[op]} {codes[1]}", _B, ())
        if op == "not" and n == 1 and tss[0] == _B:
            return _E(f"not {codes[0]}", _B, ())
        if op == "round" and n == 1 and tss[0] in (_I, _F):
            if tss[0] == _I:
                return args[0]
            c = codes[0]  # inf and nan have no nearest integer: `_op` raises
            return _E(f"float(round({c})) if {c} - {c} == 0.0 else _op('round', {c})", _F, ())
        if op == "coalesce" and n >= 1:
            return self.coalesce(args)
        return _E(f"_op({op!r}, {', '.join(codes)})", ts, None)

    def minmax(self, op, codes, iv, ts):
        """Python's min/max keep the first extreme operand: fold pairwise, one
        statement per operand after the second."""
        rel = ">" if op == "min" else "<"
        code = f"{codes[1]} if {codes[0]} {rel} {codes[1]} else {codes[0]}"
        if len(codes) == 2:
            return _E(code, ts, iv)
        r = self.fresh()
        self.emit(f"{r} = {code}")
        for c in codes[2:]:
            self.emit(f"if {r} {rel} {c}: {r} = {c}")
        return _E(r, ts, iv)

    def coalesce(self, args):
        """First non-missing operand, every operand evaluated already; those
        after the first that is never missing are never chosen."""
        head = []
        for a in args:
            head.append(a)
            if a.ts is not None:
                break
        if len(head) == 1:
            return head[0]
        r = self.fresh()
        self.emit(f"{r} = {head[0].code}")
        for a in head[1:]:
            self.emit(f"if {r} is MISSING: {r} = {a.code}")
        return _E(r, None)

    def select(self, e):
        c = self.expr(e.args[0])
        r = self.fresh()
        if c.ts == _B:
            head = f"if {c.code}:"
        elif c.ts is not None:  # never missing
            head = f"if _sel({c.code}):"
        else:
            ref = self.local(c.code)
            self.emit(f"if {ref} is MISSING:")
            self.emit(f"    {r} = MISSING")
            head = f"elif _sel({ref}):"
        arms = []

        def then(x):
            arms.append(x)
            self.emit(f"{r} = {x.code}")

        self.arm(head, e.args[1], then)
        self.arm("else:", e.args[2], then)
        ts, iv = _join((arms[0].ts, arms[0].iv), (arms[1].ts, arms[1].iv))
        return _E(r, ts if c.ts is not None else None, iv)

    def logic(self, op, operands):
        """`&&`/`||`: one `if` per operand after the first, each entered while
        the result is still open; the result may turn missing on the way."""
        halt = op == "or"
        if not operands:
            return _E(repr(not halt), _B, ())
        first = self.expr(operands[0])
        tss = [first.ts]
        r = self.fresh()
        self.emit(f"{r} = {first.code if first.ts == _B else f'_lv({first.code}, {op!r})'}")
        for a in operands[1:]:
            bools = all(t == _B for t in tss)
            guard = (r if op == "and" else f"not {r}") if bools else f"{r} is not {halt}"

            def then(x):
                tss.append(x.ts)
                if x.ts == _B and bools:
                    self.emit(f"{r} = {x.code}")
                elif x.ts == _B:
                    self.emit(f"if {'' if halt else 'not '}({x.code}): {r} = {halt}")
                else:
                    v = self.local(f"_lv({x.code}, {op!r})")
                    self.emit(f"if {v} is not {not halt}: {r} = {v}")

            self.arm(f"if {guard}:", a, then)
        return _E(r, None if any(t is None for t in tss) else _B, ())

    # -- statements

    def stmt(self, s):
        if isinstance(s, Block):
            for x in s.stmts:
                self.stmt(x)
        elif isinstance(s, (Let, AssignVar)):
            self.used = set()
            v = self.expr(s.value)
            loc = self.define(s.name) if isinstance(s, Let) else self.lookup(s.name)
            if loc is None:
                self.emit(v.code)
                self.emit(self.fail(UNDECLARED.format(s.name)).code)
            else:
                self.assign(loc, v, loc in self.used)
                self.emit(f"{loc} = {v.code}")
                if isinstance(s, AssignVar):
                    self.bump(loc)
        elif not isinstance(s, Nop):
            emit = self.STMTS.get(type(s))
            if emit is None:
                self.emit(self.fail(CANNOT_EXEC.format(s)).code)
            else:
                emit(self, s)

    def body(self, s):
        """Emit `s` in a fresh scope, one level deeper than its header."""
        self.scope.append({})
        self.stmt(s)
        self.scope.pop()

    def write(self, s):
        if len(s.idx) != 1:
            self.emit(self.fail(WRITE_NOT_LINEAR).code)
            return
        if s.buf not in self.table.bufs:
            self.emit(f"_keyerror({s.buf!r})")
            return
        dtype, size, _ = self.table.bufs[s.buf]
        # the interpreter's order: index, value, coercion, then the bounds check
        i = self.expr(s.idx[0])
        if s.buf in self.table.readonly:  # raised once the operands are evaluated
            self.local(i.code)
            self.local(self.expr(s.value).code)
            self.emit(self.fail(READ_ONLY.format(s.buf)).code)
            return
        native = i.ts == _I and s.buf not in self.table.dynamic
        slot = self.slot(i, size) if native else None
        ref = i.code if slot is not None else self.local(i.code)
        v = self.expr(s.value)
        self.count("buffer_writes")
        stored = v.ts if dtype is None else {"float": _F, "int": _I, "bool": _B}.get(
            dtype, _NONE)
        old = self.buf_facts(s.buf)[0]
        if s.op != "set":
            stored = _tjoin(stored, _result_types(s.op, [old, stored]))
        key = ("w", s.buf)
        self.facts[key] = _tjoin(self.facts.get(key, _NONE), stored)
        b, d, n = (self.alias(s.buf, k) for k in "bdn")
        value = self.coerced(dtype, v)
        if (not native or value is None or s.op not in ("set", "add")
                or s.op == "add" and not old == stored == _F):
            self.emit(f"_write({b}, {self.local(ref)}, {s.op!r}, {v.code})")
        elif slot is not None:
            self.emit(f"{d}[{slot}] {'=' if s.op == 'set' else '+='} {value}")
        else:
            value = self.local(value)
            self.emit(f"if 0 < {ref} <= {n}:")
            self.emit(f"    {d}[{ref} - 1] {'=' if s.op == 'set' else '+='} {value}")
            self.emit("else:")  # out of bounds: `+=` fails on its read, as in the interpreter
            self.emit(f"    {b}.set({ref}, {value})" if s.op == "set"
                      else f"    _write({b}, {ref}, {s.op!r}, {value})")
        self.written(s.buf)

    def coerced(self, dtype, v):
        """Native code for coerce(dtype, v), or None when it is not proven safe."""
        if v.ts not in (_I, _F, _B):
            return None
        if dtype is None or (dtype, v.ts) in (("float", _F), ("bool", _B)):
            return v.code
        if dtype == "float":
            return f"float({v.code})"
        if dtype == "int" and v.ts == _B:
            return f"int({v.code})"
        if dtype == "int" and v.ts == _I:
            return v.code if _fits(v.iv) else f"_ck({v.code})"
        return None

    def for_(self, s):
        lo, hi = self.operands((s.lo, s.hi))
        site = self.new_site(loop_iterations=1)
        r = self.fresh()
        self.emit(f"{r} = _range({lo.code}, {hi.code})")
        self.emit(f"k{site} += len({r})")
        self.scope.append({})  # the loop variable's frame; `body` adds the body's
        var = self.define(s.var)
        iv = None
        if lo.ts == hi.ts == _I and lo.iv is not None and hi.iv is not None:
            iv = (lo.iv[0], hi.iv[1]) if lo.iv and hi.iv else ()
        self.assign(var, _E("", _I, iv))
        self.emit(f"for {var} in {r}:")
        saved, self.avail = self.avail, {}
        outer, self.site = self.site, site
        self.ind += 1
        mark = len(self.lines)
        self.body(s.body)
        if len(self.lines) == mark:
            self.emit("pass")
        self.ind -= 1
        self.site, self.avail = outer, saved
        self.scope.pop()

    def while_(self, s):
        """`while c:`, or `while True:` with the condition's statements and a
        `break` at the top of the body when it needs statements."""
        site = self.new_site(loop_iterations=1)
        saved, self.avail = self.avail, {}
        c, pre, counts = self.detached(s.cond)
        self.charge(self.site, counts)
        self.charge(site, counts)
        cond = c.code if c.ts == _B else f"_loop({c.code})"
        cur = self.lookup(s.cursor) if s.cursor is not None else None
        prev = self.fresh()
        int_cursor = cur is not None and self.fact(cur)[0] == _I
        if int_cursor:
            self.emit(f"{prev} = {cur} - 1")
        elif cur is not None:
            self.emit(f"{prev} = None")
        if pre:
            self.emit("while True:")
            self.lines.extend(pre)
            self.emit(f"    if not ({cond}): break")
        else:
            self.emit(f"while {cond}:")
        outer, self.site = self.site, site
        self.ind += 1
        self.emit(f"k{site} += 1")
        if s.cursor is not None:
            if cur is None:
                self.emit(self.fail(UNBOUND.format(s.cursor)).code)
            else:
                test = (f"{cur} <= {prev}" if int_cursor
                        else f"{prev} is not None and not {cur} > {prev}")
                self.emit(f"if {test}:")
                self.emit(f"    _stuck({s.cursor!r}, {cur})")
                self.emit(f"{prev} = {cur}")
        self.body(s.body)
        self.ind -= 1
        self.site, self.avail = outer, saved

    def ifchain(self, s):
        """if/elif/else; a later condition runs when every earlier one failed,
        so its counts go to the enclosing site less the earlier cases' sites.
        A later condition that needs statements opens a group, `if flag:`,
        entered while no earlier case has been taken: taking one clears the
        flag."""
        outer = self.site
        conds, sites = [], []  # (statements, code, values available to the case)
        for k, (cond, _) in enumerate(s.cases):
            if k == 0:
                c, pre = self.expr(cond), None
                after, self.avail = self.avail, dict(self.avail)  # the else region
            else:
                c, pre, counts = self.detached(cond)
                self.charge(outer, counts)
                for earlier in sites:
                    self.charge(earlier, counts, -1)
            sites.append(self.new_site())
            code = c.code if c.ts == _B else f"_truth({c.code}, 'branch condition')"
            conds.append((pre, code, dict(self.avail)))
        orelse_avail, self.avail = self.avail, after
        groups = [k for k, (pre, _, _) in enumerate(conds) if pre]
        flag = self.fresh() if groups else None
        if flag:
            self.emit(f"{flag} = True")
        depth = 0
        for k, ((pre, code, avail), (_, body)) in enumerate(zip(conds, s.cases)):
            if pre:
                self.emit(f"if {flag}:")
                self.lines.extend(pre)
                depth = 1
            self.ind += depth
            clear = flag and k < groups[-1]

            def fill(body=body, clear=clear):
                if clear:
                    self.emit(f"{flag} = False")
                self.body(body)

            self.branch(f"{'if' if k == 0 or pre else 'elif'} {code}:", sites[k], fill, avail)
            self.ind -= depth
        if s.orelse is not None:
            self.ind += depth
            self.branch("else:", self.new_site(), lambda: self.body(s.orelse), orelse_avail)
            self.ind -= depth

    def hook(self, s):
        tensor, _, action = s.fn.partition(".")
        if tensor not in self.table.writers:
            self.emit(self.fail(NO_WRITER.format(tensor)).code)
            return
        args = self.operands(s.args)
        codes = [a.code for a in args]
        if action in ("init", "finalize"):
            self.emit(f"{self.alias(tensor, 'w')}.{action}()")
        else:
            # a run counts the writes the writer returns, on a site of its own
            counted = ""
            if action == "run_set":
                counted = f"k{self.new_site(buffer_writes=1)} += "
            elif action.startswith("append_"):
                self.count("buffer_writes")
            # native calls of the writer's bound hook where the values the
            # interpreter checks are never missing
            native = args and all(a.ts for a in args)
            prefix = ", ".join(codes[:-1 if action != "run_set" else -3])
            if action.startswith("append_") and native:
                self.emit(f"{self.alias(tensor, 'a')}([{prefix}], {action[7:]!r}, {codes[-1]})")
            elif action == "run_set" and len(args) >= 3 and native:
                self.emit(f"{counted}{self.alias(tensor, 'r')}([{prefix}], {', '.join(codes[-3:])})")
            else:
                self.emit(f"{counted}_hook({self.alias(tensor, 'w')}, {s.fn!r}, [{', '.join(codes)}])")
        for name in self.table.writers[tensor]:
            self.written(name)


_Gen.EXPRS = {Lit: _Gen.lit, Var: _Gen.var, Read: _Gen.read, Search: _Gen.search,
              Call: _Gen.call}
_Gen.STMTS = {BufferWrite: _Gen.write, For: _Gen.for_, While: _Gen.while_,
              IfChain: _Gen.ifchain, CallStmt: _Gen.hook}
_PROLOGUE = {"b": "B[%r]", "d": "B[%r].data", "n": "len(B[%r].data)", "w": "W[%r]",
             "a": "W[%r].append", "r": "W[%r].run_set"}


def _source(prog, table: _Facts):
    """Run generation passes until the facts they rely on stop changing.

    Returns the source of `_run(B, W, P)`, its constants, and the static
    counts of site 0 and of each site `_run` returns a bump count for."""
    env = {}
    npass = 0
    while True:
        npass += 1
        g = _Gen(table, env)
        g.stmt(prog)
        new = dict(env)
        for key, f in g.facts.items():
            old = env.get(key)
            if isinstance(key, tuple):  # types written into a buffer
                new[key] = f if old is None else _tjoin(old, f)
                continue
            joined = f if old is None else _join(old, f)
            if old is not None and npass >= 2 and joined[1] != old[1]:
                joined = (joined[0], None)  # widen a still-growing interval
            new[key] = joined
        if new == env:
            break
        env = new
    live = [k for k, site in enumerate(g.sites) if k and any(site.values())]
    head = ["def _run(B, W, P):"]
    for (kind, name), alias in g.aliases.items():
        head.append(f"    {alias} = " + _PROLOGUE[kind] % name)
    for name, loc in g.params.items():
        head.append(f"    {loc} = P[{name!r}]")
    if live:
        head.append(f"    {' = '.join(f'k{k}' for k in live)} = 0")
    tail = f"    return ({''.join(f'k{k}, ' for k in live)})"
    src = "\n".join(head + g.lines + [tail]) + "\n"
    return src, g.consts, [g.sites[0]] + [g.sites[k] for k in live]


# -- reuse -----------------------------------------------------------------------------


class _Code:
    """A program's compiled `_run`, the key of the facts table it was
    generated under, and the static counts of its sites."""

    __slots__ = ("key", "run", "sites")

    def __init__(self, key: tuple, run, sites: list):
        self.key, self.run, self.sites = key, run, sites

    def fits(self, key: tuple) -> bool:
        """Whether the code was generated under a table of this key, compared
        element by element in type and value."""
        return len(self.key) == len(key) and all(map(_same, self.key, key))

    def __call__(self, buffers: Dict[str, Buf], params: Optional[dict] = None,
                 writers: Optional[dict] = None) -> ExecCounters:
        """Run on a state whose facts table has this code's key."""
        bumps = (1,) + self.run(buffers, writers or {}, params or {})
        total = Counter()
        for n, site in zip(bumps, self.sites):
            for key, c in site.items():
                total[key] += n * c
        counters = ExecCounters()
        for key, n in total.items():
            if isinstance(key, tuple):
                if n:
                    counters.reads_by_buffer[key[1]] = n
            else:
                setattr(counters, key, n)
        return counters


def generated(lowered: Lowered, buffers: Dict[str, Buf], params: Optional[dict] = None,
              writers: Optional[dict] = None):
    """The code of `lowered.program` for this state, and "cached" when it is
    the code `lowered` keeps, generated for an earlier state whose facts table
    is equal in type and value, else "fresh": generated now and kept in
    `lowered` in its place."""
    table = _Facts(buffers, writers or {}, params or {})
    if lowered.code is not None and lowered.code.fits(table.key):
        return lowered.code, "cached"
    src, consts, sites = _source(lowered.program, table)
    ns = dict(_GLOBALS, **{f"_c{k}": v for k, v in enumerate(consts)})
    exec(compile(src, "<coil codegen>", "exec"), ns)
    # popped so that the function and its globals form no cycle
    lowered.code = _Code(table.key, ns.pop("_run"), sites)
    return lowered.code, "fresh"


def run_program(prog, buffers: Dict[str, Buf], params: Optional[dict] = None,
                writers: Optional[dict] = None) -> ExecCounters:
    """Run `prog` as code generated for this run alone; the counters equal
    the interpreter's."""
    code, _ = generated(Lowered(prog), buffers, params, writers)
    return code(buffers, params, writers)
