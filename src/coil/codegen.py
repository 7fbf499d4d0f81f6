"""Generated-Python execution backend for the target IR.

`run_program` turns a target-IR program into the source of one Python
function, compiles it with `exec` and runs it on the interpreter's `Buf`s and
writers. The interpreter (`interp.py`) stays the reference: the generated code
raises `InterpError` wherever the interpreter does, leaves the same values in
every buffer and writer, and yields the same `ExecCounters`. The runtime
checks, the binary search, the buffer write and the writer hooks are defined
once, in `interp.py`; the generated code calls those functions, so both
backends raise the same messages.

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
  sum of site bumps times site counts.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from typing import Dict, Optional

from .expr import Call, Lit, Read, Search, Var
from .interp import (Buf, ExecCounters, InterpError, _hook, _loop, _lv, _range, _search, _sel,
                     _stuck, _truth, _write)
from .target import AssignVar, Block, BufferWrite, CallStmt, For, IfChain, Let, Nop, While
from .values import INT_MAX, INT_MIN, MISSING, EvalError, apply_op

# Facts about a value are (types, interval). Types is a frozenset of int,
# float and bool, or None for "any" (missing included). The interval bounds an
# int: (lo, hi), () while there is no value yet, None when unknown.
_I, _F, _B = frozenset({int}), frozenset({float}), frozenset({bool})
_NONE = frozenset()  # no value yet (or never: the expression raises)
_SCALARS = frozenset({int, float, bool})
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


def _counts(op, n):
    if op == "mul":
        return "multiplies", n - 1
    if op == "add":
        return "adds", n - 1
    if op == "sub":
        return "adds", 1
    if op in ("min", "max"):
        return "compares", max(n - 1, 1)
    if op in _CMP:
        return "compares", 1
    return None, 0


def _literal(v, consts) -> str:
    if type(v) is bool or (type(v) is int) or (type(v) is float and v - v == 0):
        text = repr(v)
        return f"({text})" if text.startswith("-") else text
    consts.append(v)
    return f"_c{len(consts) - 1}"


class _E:
    """An emitted expression: its code and facts."""

    __slots__ = ("code", "ts", "iv")

    def __init__(self, code, ts, iv=None):
        self.code, self.ts, self.iv = code, ts, iv


class _Buffers:
    """Read facts of the runtime buffers, from their data."""

    def __init__(self, buffers: Dict[str, Buf], writers: dict):
        self.buffers = buffers
        # append writers grow their buffers; reads of them go through Buf.get
        self.dynamic = {name for w in writers.values() if w.appends
                        for name in w.buffers}
        self.facts = {}

    def scan(self, name):
        if name not in self.facts:
            data = self.buffers[name].data
            ts = frozenset(map(type, data))
            if name in self.dynamic or not ts <= _SCALARS:
                self.facts[name] = _ANY
            else:
                self.facts[name] = (ts, (min(data), max(data)) if ts == _I else ())
        return self.facts[name]


# -- generation ------------------------------------------------------------------------


class _Gen:
    """One generation pass. Facts of locals are read from `env` (the previous
    pass) joined with what this pass has assigned so far."""

    def __init__(self, bufs: _Buffers, writers: dict, params: dict, env: dict):
        self.bufs, self.writers, self.env = bufs, writers, env
        self.facts = {}
        self.lines = []
        self.ind = 1
        self.sites = [Counter()]  # site 0: the function body, entered once
        self.site = 0
        self.ntmp = 0
        self.consts = []
        self.aliases = {}  # buffer or writer name -> prologue alias
        base = {}
        for k, (name, v) in enumerate(params.items()):
            loc = f"p{k}_{re.sub(r'[^A-Za-z0-9]', '_', name)}"
            base[name] = loc
            self.facts[loc] = _lit_facts(v) if type(v) in _SCALARS else _ANY
        self.params = dict(base)
        self.scope = [base]

    # -- helpers

    def emit(self, line):
        self.lines.append("    " * self.ind + line)

    @staticmethod
    def fail(msg):
        """Code that raises InterpError(msg) when it is reached."""
        return _E("_fail(%r)" % msg, _NONE, ())

    def tmp(self, code):
        """(first use, later uses) of a value that must be evaluated once."""
        if _PURE(code):
            return code, code
        self.ntmp += 1
        t = f"t{self.ntmp}"
        return f"({t} := {code})", t

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

    def assign(self, loc, e):
        self.facts[loc] = _join(self.facts.get(loc, (_NONE, ())), (e.ts, e.iv))

    def lookup(self, name):
        for frame in reversed(self.scope):
            if name in frame:
                return frame[name]
        return None

    def define(self, name):
        self.ntmp += 1
        loc = f"v{self.ntmp}_{re.sub(r'[^A-Za-z0-9]', '_', name)}"
        self.scope[-1][name] = loc
        return loc

    def alias(self, name, kind):
        key = (kind, name)
        if key not in self.aliases:
            self.aliases[key] = f"{kind}{len(self.aliases)}"
        return self.aliases[key]

    def buf_facts(self, name):
        ts, iv = self.bufs.scan(name)
        written = self.env.get(("w", name))
        return (ts, iv) if written is None else (_tjoin(ts, written), None)

    def arm(self, e):
        """An expression evaluated only sometimes, counted on its own site."""
        outer, self.site = self.site, self.new_site()
        x = self.expr(e)
        site, self.site = self.site, outer
        if any(self.sites[site].values()):
            x.code = f"((k{site} := k{site} + 1) and {x.code})"
        return x

    def apart(self, e):
        """Emit `e`, returning its unconditional counts instead of charging them."""
        outer, self.site = self.site, self.new_site()
        x = self.expr(e)
        counts = Counter(self.sites[self.site])
        self.sites[self.site].clear()
        self.site = outer
        return x, counts

    def body(self, s, site):
        """Emit `s` one level deeper, in a fresh scope, charging `site`."""
        outer, self.site = self.site, site
        self.ind += 1
        self.scope.append({})
        n = len(self.lines)
        self.stmt(s)
        if len(self.lines) == n:
            self.emit("pass")
        self.scope.pop()
        self.ind -= 1
        self.site = outer

    # -- expressions

    def expr(self, e) -> _E:
        if isinstance(e, Lit):
            ts, iv = _lit_facts(e.value)
            return _E(_literal(e.value, self.consts), ts, iv)
        if isinstance(e, Var):
            loc = self.lookup(e.name)
            if loc is None:
                return self.fail(f"unbound symbol {e.name!r}")
            return _E(loc, *self.fact(loc))
        if isinstance(e, Read):
            return self.read(e)
        if isinstance(e, Search):
            return self.search(e)
        if isinstance(e, Call):
            return self.call(e)
        return self.fail(f"cannot evaluate {e!r}")

    def read(self, e):
        if e.buf not in self.bufs.buffers:
            return self.fail(f"unknown buffer {e.buf!r}")
        if len(e.idx) != 1:
            return self.fail(f"buffer read of {e.buf} must be linearized")
        i = self.expr(e.idx[0])
        self.count("buffer_reads")
        self.count(("reads", e.buf))
        ts, iv = self.buf_facts(e.buf)
        b = self.alias(e.buf, "b")
        if i.ts != _I or e.buf in self.bufs.dynamic:
            return _E(f"{b}.get({i.code})", ts, iv)
        d, n = self.alias(e.buf, "d"), self.alias(e.buf, "n")
        size = len(self.bufs.buffers[e.buf].data)
        if _fits(i.iv, 1, size):
            if _PURE(i.code) and i.iv[0] == i.iv[1]:
                return _E(f"{d}[{i.iv[0] - 1}]", ts, iv)
            return _E(f"{d}[{i.code} - 1]", ts, iv)
        first, ref = self.tmp(i.code)
        return _E(f"({d}[{ref} - 1] if 0 < {first} <= {n} else {b}.get({ref}))", ts, iv)

    def search(self, e):
        if e.buf not in self.bufs.buffers:
            return _E(f"_keyerror({e.buf!r})", _NONE, ())
        lo, hi, key = self.expr(e.lo), self.expr(e.hi), self.expr(e.key)
        self.count("searches")
        b = self.alias(e.buf, "b")
        fast = (lo.ts == hi.ts == key.ts == _I and self.buf_facts(e.buf)[0] == _I
                and e.buf not in self.bufs.dynamic)
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
        args = [self.expr(a) for a in e.args]
        key, k = _counts(op, n)
        if key:
            self.count(key, k)
        tss = [a.ts for a in args]
        ts = _result_types(op, tss)
        num = n >= 1 and all(t in (_I, _F) for t in tss)
        codes = [a.code for a in args]
        if num and (op in ("add", "mul") and n >= 2 or op == "sub" and n == 2
                    or op == "neg" and n == 1):
            if op == "mul" and ts == _F:
                return _E(self.float_mul(args), ts, ())
            sym = {"add": " + ", "sub": " - ", "mul": " * "}.get(op)
            code = f"({sym.join(codes)})" if sym else f"(-{codes[0]})"
            if ts != _I:
                return _E(code, ts, ())
            iv = _interval(op, [a.iv for a in args])
            return _E(code, ts, iv) if _fits(iv) else _E(f"_ck({code})", ts, _FULL)
        if num and op in ("min", "max") and n >= 2:
            return self.minmax(op, args, ts)
        if op in _CMP and n == 2 and all(t and t <= _SCALARS for t in tss):
            return _E(f"({codes[0]} {_CMP[op]} {codes[1]})", _B, ())
        if op == "not" and n == 1 and tss[0] == _B:
            return _E(f"(not {codes[0]})", _B, ())
        if op == "round" and n == 1 and tss[0] in (_I, _F):
            return args[0] if tss[0] == _I else _E(f"float(round({codes[0]}))", _F, ())
        if op == "coalesce" and n >= 1 and all(_PURE(c) for c in codes[1:]):
            return self.coalesce(args)
        return _E(f"_op({op!r}, {', '.join(codes)})", ts, None)

    def float_mul(self, args):
        """Float product with apply_op's absorbing zero: 0.0 whenever an
        operand is zero (native `0.0 * -x` is -0.0, `0.0 * inf` is nan).
        Every impure operand is evaluated, in order, before the test."""
        refs, firsts, pure = [], [], []
        for a in args:
            if _PURE(a.code):
                refs.append(a.code)
                pure.append(a.code)
            else:
                first, ref = self.tmp(a.code)
                refs.append(ref)
                firsts.append(first)
        tests = [firsts[0]] if len(firsts) == 1 else [
            " & ".join(f"({f} != 0)" for f in firsts)] if firsts else []
        return f"({' * '.join(refs)} if {' and '.join(tests + pure)} else 0.0)"

    def minmax(self, op, args, ts):
        """Python's min/max keep the first extreme operand: fold pairwise."""
        rel = ">" if op == "min" else "<"
        cur = args[0].code
        for a in args[1:]:
            first, ref = self.tmp(cur)
            nfirst, nref = self.tmp(a.code)
            cur = f"({nref} if {first} {rel} {nfirst} else {ref})"
        iv = _interval(op, [a.iv for a in args]) if ts == _I else ()
        return _E(cur, ts, iv)

    def coalesce(self, args):
        """First non-missing operand; operands after the first are pure, and
        those after the first that is never missing are never reached."""
        head = []
        for a in args:
            head.append(a)
            if a.ts is not None:
                break
        code = head[-1].code
        for a in reversed(head[:-1]):
            first, ref = self.tmp(a.code)
            code = f"({ref} if {first} is not MISSING else {code})"
        return head[0] if len(head) == 1 else _E(code, None)

    def select(self, e):
        c = self.expr(e.args[0])
        x, y = self.arm(e.args[1]), self.arm(e.args[2])
        ts, iv = _join((x.ts, x.iv), (y.ts, y.iv))
        if c.ts == _B:
            return _E(f"({x.code} if {c.code} else {y.code})", ts, iv)
        if c.ts is not None:  # never missing
            return _E(f"({x.code} if _sel({c.code}) else {y.code})", ts, iv)
        first, ref = self.tmp(c.code)
        code = f"(MISSING if {first} is MISSING else ({x.code} if _sel({ref}) else {y.code}))"
        return _E(code, None, iv)

    def logic(self, op, operands):
        halt = op == "or"
        if not operands:
            return _E(repr(not halt), _B, ())
        args = [self.expr(operands[0])] + [self.arm(a) for a in operands[1:]]
        if all(a.ts == _B for a in args):
            return _E("(" + f" {op} ".join(a.code for a in args) + ")", _B, ())
        refs = []
        for a in args:
            first, ref = self.tmp(f"_lv({a.code}, {op!r})")
            refs.append((first, ref))
        code = f"(MISSING if {' or '.join(f'{r} is MISSING' for _, r in refs)} else {not halt})"
        for first, _ in reversed(refs):
            code = f"({halt} if {first} is {halt} else {code})"
        anyts = any(a.ts is None for a in args)
        return _E(code, None if anyts else _B, ())

    # -- statements

    def stmt(self, s):
        if isinstance(s, Block):
            for x in s.stmts:
                self.stmt(x)
        elif isinstance(s, (Let, AssignVar)):
            v = self.expr(s.value)
            loc = self.define(s.name) if isinstance(s, Let) else self.lookup(s.name)
            if loc is None:
                self.emit(v.code)
                self.emit(self.fail(f"assignment to undeclared variable {s.name!r}").code)
            else:
                self.assign(loc, v)
                self.emit(f"{loc} = {v.code}")
        elif not isinstance(s, Nop):
            emit = self.STMTS.get(type(s))
            if emit is None:
                self.emit(self.fail(f"cannot execute {s!r}").code)
            else:
                emit(self, s)

    def write(self, s):
        if len(s.idx) != 1:
            self.emit(self.fail("buffer writes must be linearized").code)
            return
        if s.buf not in self.bufs.buffers:
            self.emit(f"_keyerror({s.buf!r})")
            return
        buf = self.bufs.buffers[s.buf]
        i, v = self.expr(s.idx[0]), self.expr(s.value)
        self.count("buffer_writes")
        stored = v.ts if buf.dtype is None else {"float": _F, "int": _I, "bool": _B}.get(
            buf.dtype, _NONE)
        old = self.buf_facts(s.buf)[0]
        if s.op != "set":
            stored = _tjoin(stored, _result_types(s.op, [old, stored]))
        key = ("w", s.buf)
        self.facts[key] = _tjoin(self.facts.get(key, _NONE), stored)
        b, d, n = (self.alias(s.buf, k) for k in "bdn")
        value = self.coerced(buf.dtype, v)
        if (i.ts != _I or s.buf in self.bufs.dynamic or value is None
                or s.op not in ("set", "add") or s.op == "add" and not old == stored == _F):
            self.emit(f"_write({b}, {i.code}, {s.op!r}, {v.code})")
            return
        # the interpreter's order: index, value, coercion, then the bounds check
        ref = self.local(i.code)
        assign = "=" if s.op == "set" else "+="
        if _fits(i.iv, 1, len(buf.data)):
            slot = f"{i.iv[0] - 1}" if _PURE(i.code) and i.iv[0] == i.iv[1] else f"{ref} - 1"
            self.emit(f"{d}[{slot}] {assign} {value}")
            return
        value = self.local(value)
        self.emit(f"if 0 < {ref} <= {n}:")
        self.emit(f"    {d}[{ref} - 1] {assign} {value}")
        self.emit("else:")  # out of bounds: `+=` fails on its read, as in the interpreter
        self.emit(f"    {b}.set({ref}, {value})" if s.op == "set"
                  else f"    _write({b}, {ref}, {s.op!r}, {value})")

    def local(self, code):
        """`code` evaluated now, into a temporary unless it is a name or literal."""
        if _PURE(code):
            return code
        self.ntmp += 1
        self.emit(f"t{self.ntmp} = {code}")
        return f"t{self.ntmp}"

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
        lo, hi = self.expr(s.lo), self.expr(s.hi)
        site = self.new_site(loop_iterations=1)
        self.ntmp += 1
        r = f"t{self.ntmp}"
        self.emit(f"{r} = _range({lo.code}, {hi.code})")
        self.emit(f"k{site} += len({r})")
        self.scope.append({})  # the loop variable's frame; `body` adds the body's
        var = self.define(s.var)
        iv = None
        if lo.ts == hi.ts == _I and lo.iv is not None and hi.iv is not None:
            iv = (lo.iv[0], hi.iv[1]) if lo.iv and hi.iv else ()
        self.assign(var, _E("", _I, iv))
        self.emit(f"for {var} in {r}:")
        self.body(s.body, site)
        self.scope.pop()

    def while_(self, s):
        site = self.new_site(loop_iterations=1)
        c, counts = self.apart(s.cond)
        self.charge(self.site, counts)
        self.charge(site, counts)
        cur = self.lookup(s.cursor) if s.cursor is not None else None
        self.ntmp += 1
        prev = f"t{self.ntmp}"
        int_cursor = cur is not None and self.fact(cur)[0] == _I
        if int_cursor:
            self.emit(f"{prev} = {cur} - 1")
        elif cur is not None:
            self.emit(f"{prev} = None")
        self.emit(f"while {c.code if c.ts == _B else f'_loop({c.code})'}:")
        self.emit(f"    k{site} += 1")
        if s.cursor is not None:
            if cur is None:
                self.emit("    " + self.fail(f"unbound symbol {s.cursor!r}").code)
            else:
                test = (f"{cur} <= {prev}" if int_cursor
                        else f"{prev} is not None and not {cur} > {prev}")
                self.emit(f"    if {test}:")
                self.emit(f"        _stuck({s.cursor!r}, {cur})")
                self.emit(f"    {prev} = {cur}")
        self.body(s.body, site)

    def ifchain(self, s):
        """if/elif/else; a later condition runs when every earlier one failed,
        so its counts go to the enclosing site less the earlier cases' sites."""
        outer = self.site
        arms, sites = [], []
        for k, (cond, body) in enumerate(s.cases):
            if k == 0:
                c = self.expr(cond)
            else:
                c, counts = self.apart(cond)
                self.charge(outer, counts)
                for earlier in sites:
                    self.charge(earlier, counts, -1)
            code = c.code if c.ts == _B else f"_truth({c.code}, 'branch condition')"
            sites.append(self.new_site())
            arms.append((f"{'if' if k == 0 else 'elif'} {code}:", body))
        if s.orelse is not None:
            sites.append(self.new_site())
            arms.append(("else:", s.orelse))
        for (head, body), site in zip(arms, sites):
            self.emit(head)
            mark = len(self.lines)
            self.body(body, site)
            if any(self.sites[site].values()):
                if self.lines[mark].strip() == "pass":
                    del self.lines[mark]
                self.lines.insert(mark, "    " * (self.ind + 1) + f"k{site} += 1")

    def hook(self, s):
        tensor, _, action = s.fn.partition(".")
        if tensor not in self.writers:
            self.emit(self.fail(f"no writer bound for output {tensor!r}").code)
            return
        args = [self.expr(a) for a in s.args]
        w = self.alias(tensor, "w")
        codes = ", ".join(a.code for a in args)
        if action in ("init", "finalize"):
            if args:
                self.emit(f"({codes},)")
            self.emit(f"{w}.{action}()")
            return
        if action.startswith("append_") or action == "run_set":
            self.count("buffer_writes")
        # native calls where the values the interpreter checks are never missing
        prefix = ", ".join(a.code for a in args[:-1 if action != "run_set" else -3])
        if action.startswith("append_") and args and all(a.ts for a in args):
            self.emit(f"{w}.append([{prefix}], {action[7:]!r}, {args[-1].code})")
        elif action == "run_set" and len(args) >= 3 and args[-1].ts:
            self.emit(f"{w}.run_set([{prefix}], {', '.join(a.code for a in args[-3:])})")
        else:
            self.emit(f"_hook({w}, {s.fn!r}, [{codes}])")


_Gen.STMTS = {BufferWrite: _Gen.write, For: _Gen.for_, While: _Gen.while_,
              IfChain: _Gen.ifchain, CallStmt: _Gen.hook}
_PROLOGUE = {"b": "B[%r]", "d": "B[%r].data", "n": "len(B[%r].data)", "w": "W[%r]"}


def _source(prog, buffers: Dict[str, Buf], writers: dict, params: dict):
    """Run generation passes until the facts they rely on stop changing.

    Returns the source of `_run(B, W, P)`, its constants, and the static
    counts of site 0 and of each site `_run` returns a bump count for."""
    bufs = _Buffers(buffers, writers)
    env = {}
    npass = 0
    while True:
        npass += 1
        g = _Gen(bufs, writers, params, env)
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


def run_program(prog, buffers: Dict[str, Buf], params: Optional[dict] = None,
                writers: Optional[dict] = None) -> ExecCounters:
    """Generate, compile and run `prog`; the counters equal the interpreter's."""
    src, consts, sites = _source(prog, buffers, writers or {}, params or {})
    ns = dict(_GLOBALS, **{f"_c{k}": v for k, v in enumerate(consts)})
    exec(compile(src, "<coil codegen>", "exec"), ns)
    run = ns.pop("_run")  # so that the function and its globals form no cycle
    bumps = (1,) + run(buffers, writers or {}, params or {})
    total = Counter()
    for n, site in zip(bumps, sites):
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
