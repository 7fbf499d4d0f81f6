"""Symbolic scalar/index expressions shared by looplet bodies and the target IR.

Index arithmetic goes through the normalizing constructors (iadd, imin, ...)
which fold constants, flatten nested min/max/add and drop identities, so
structural equality decides equality of normalized bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .values import value_repr


class Expr:
    """Expression node. Every IR family (expressions, CIN and target
    statements, looplets) shares one traversal protocol: `children()` lists
    a node's child nodes in visit order, and `map(fe, fs)` rebuilds the node
    with `fe` applied to each expression child and `fs` to each statement or
    looplet child. Leaves keep the defaults."""

    __slots__ = ()

    def children(self) -> tuple:
        return ()

    def map(self, fe, fs=None):
        return self


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    """A literal. Two literals are equal, and hash alike, when their values
    print alike (`value_repr`): 1, 1.0 and true are three literals, 0.0 and
    -0.0 are two, and nan equals nan. So equal nodes of every IR family
    hold the same values, of the same types."""

    value: object

    def __eq__(self, other):
        return type(other) is Lit and (self.value is other.value
                                       or value_repr(self.value) == value_repr(other.value))

    def __hash__(self):
        return hash(value_repr(self.value))

    def __repr__(self):
        return f"Lit({value_repr(self.value)})"


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Read(Expr):
    """Element read of a named runtime buffer; subscripts are 1-based."""

    buf: str
    idx: Tuple[Expr, ...]

    def children(self):
        return self.idx

    def map(self, fe, fs=None):
        return Read(self.buf, tuple(map(fe, self.idx)))


@dataclass(frozen=True, slots=True)
class Call(Expr):
    op: str
    args: Tuple[Expr, ...]

    def children(self):
        return self.args

    def map(self, fe, fs=None):
        return Call(self.op, tuple(map(fe, self.args)))


@dataclass(frozen=True, slots=True)
class Search(Expr):
    """First position p in [lo, hi] with buf[p] >= key; hi+1 if none."""

    buf: str
    lo: Expr
    hi: Expr
    key: Expr

    def children(self):
        return (self.lo, self.hi, self.key)

    def map(self, fe, fs=None):
        return Search(self.buf, fe(self.lo), fe(self.hi), fe(self.key))


TRUE = Lit(True)
FALSE = Lit(False)
ZERO = Lit(0)
ONE = Lit(1)


def _const(e: Expr):
    if isinstance(e, Lit) and isinstance(e.value, int) and not isinstance(e.value, bool):
        return e.value
    return None


def iadd(*terms: Expr) -> Expr:
    """Normalized sum of index arithmetic: flattens nested adds, folds the
    constant part, and cancels x + (-x) pairs."""
    flat: list[Expr] = []
    const = 0
    stack = list(terms)
    while stack:
        t = stack.pop(0)
        if isinstance(t, Call) and t.op == "add":
            stack = list(t.args) + stack
        elif _const(t) is not None:
            const += _const(t)
        else:
            flat.append(t)
    kept: list[Expr] = []
    for t in flat:
        comp = t.args[0] if isinstance(t, Call) and t.op == "neg" else Call("neg", (t,))
        if comp in kept:
            kept.remove(comp)
        else:
            kept.append(t)
    if not kept:
        return Lit(const)
    if const != 0:
        kept.append(Lit(const))
    if len(kept) == 1:
        return kept[0]
    return Call("add", tuple(kept))


def _is_int(e: Expr) -> bool:
    """Whether `e` is int index arithmetic by its shape: int literals,
    searches and variables other than `$` parameters, under the index ops.
    (A value temporary is bound once per tensor access, so it never meets
    its own negation.)"""
    if isinstance(e, Call):
        return e.op in ("add", "neg", "mul", "min", "max") and all(map(_is_int, e.args))
    if isinstance(e, Var):
        return not e.name.startswith("$")
    return isinstance(e, Search) or _const(e) is not None


def ineg(e: Expr) -> Expr:
    c = _const(e)
    if c is not None:
        return Lit(-c)
    if isinstance(e, Call) and e.op == "neg":
        return e.args[0]
    return Call("neg", (e,))


def isub(a: Expr, b: Expr) -> Expr:
    return iadd(a, ineg(b))


def imul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return Lit(ca * cb)
    if ca == 0 or cb == 0:
        return ZERO
    if ca == 1:
        return b
    if cb == 1:
        return a
    return Call("mul", (a, b))


def _minmax(op: str, args) -> Expr:
    flat: list[Expr] = []
    const = None
    pick = min if op == "min" else max
    stack = list(args)
    while stack:
        t = stack.pop(0)
        if isinstance(t, Call) and t.op == op:
            stack = list(t.args) + stack
        elif _const(t) is not None:
            const = _const(t) if const is None else pick(const, _const(t))
        else:
            if t not in flat:
                flat.append(t)
    if const is not None:
        flat.append(Lit(const))
    if len(flat) == 1:
        return flat[0]
    return Call(op, tuple(flat))


def imin(*args: Expr) -> Expr:
    return _minmax("min", args)


def imax(*args: Expr) -> Expr:
    return _minmax("max", args)


def eq(a: Expr, b: Expr) -> Expr:
    return Call("eq", (a, b))


def le(a: Expr, b: Expr) -> Expr:
    return Call("le", (a, b))


@dataclass(frozen=True, slots=True)
class Extent:
    """Inclusive absolute index range start:stop; empty when start = stop+1."""

    start: Expr
    stop: Expr

    def is_point(self) -> bool:
        return self.start == self.stop

    def const_bounds(self):
        a, b = _const(self.start), _const(self.stop)
        if a is not None and b is not None:
            return (a, b)
        return None

    def length_expr(self) -> Expr:
        return iadd(isub(self.stop, self.start), ONE)

    def __repr__(self):
        return f"{print_expr(self.start)}:{print_expr(self.stop)}"


def extent(a, b) -> Extent:
    if isinstance(a, int):
        a = Lit(a)
    if isinstance(b, int):
        b = Lit(b)
    return Extent(a, b)


def const_diff(a: Expr, b: Expr):
    """a - b when it normalizes to a constant, else None."""
    d = isub(a, b)
    return _const(d)


def walk(node):
    """`node` and every node below it, in preorder."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children()))


def keep(node):
    """The identity map, for visitors that rebuild only one kind of child."""
    return node


# The index ops, each with the normalizer `subst` rebuilds it through.
_NORMALIZERS = {"add": iadd, "neg": ineg, "min": imin, "max": imax}


def subst(node, env: dict):
    """Substitute Var names by expressions anywhere in a node of any IR
    family (capture-free; names are unique).

    An `add`, `neg`, `min` or `max` call is rebuilt through its normalizer,
    so that bound constants keep folding, when it is index arithmetic: it
    sits in a subscript or a search bound, or `_is_int` proves it. Any other
    call keeps its operands as written: a value sum checks int overflow
    once, on its exact sum, and adds floats left to right, and a value
    `min` or `max` keeps the first of equal operands (`max(0, -0.0)` is 0),
    so folding or reordering operands can change the result."""

    def go(n, index=False):
        if isinstance(n, Var):
            return env.get(n.name, n)
        if isinstance(n, Call):
            args = tuple(go(a, index) for a in n.args)
            norm = _NORMALIZERS.get(n.op)
            if norm is not None and (index or all(map(_is_int, args))):
                return norm(*args)
            return Call(n.op, args)
        if isinstance(n, (Read, Search)):  # subscripts and search bounds are index arithmetic
            return n.map(go_index)
        return n.map(go, go)

    def go_index(n):
        return go(n, True)

    return go(node)


def free_vars(e: Expr) -> set:
    return {n.name for n in walk(e) if isinstance(n, Var)}


_INFIX = {
    "add": (" + ", 4),
    "mul": (" * ", 5),
    "and": (" && ", 2),
    "or": (" || ", 1),
    "eq": (" == ", 3),
    "ne": (" != ", 3),
    "lt": (" < ", 3),
    "le": (" <= ", 3),
    "gt": (" > ", 3),
    "ge": (" >= ", 3),
    "sub": (" - ", 4),
}


def print_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Lit):
        return value_repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Read):
        return f"{e.buf}[{', '.join(print_expr(i) for i in e.idx)}]"
    if isinstance(e, Search):
        args = ", ".join(print_expr(x) for x in (e.lo, e.hi, e.key))
        return f"search({e.buf}, {args})"
    if isinstance(e, Call):
        if e.op == "neg":
            return f"-{print_expr(e.args[0], 6)}"
        if e.op in _INFIX and len(e.args) >= 2:
            sep, p = _INFIX[e.op]
            body = sep.join(print_expr(a, p + 1) for a in e.args)
            return f"({body})" if p < prec else body
        return f"{e.op}({', '.join(print_expr(a) for a in e.args)})"
    if hasattr(e, "pprint"):
        return e.pprint(prec)
    return repr(e)
