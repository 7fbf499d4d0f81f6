"""Concrete index notation AST, pretty printer, and scope analyses.

Statements: assignment (with update operators), forall, where, multi, sieve,
pass. Accesses carry per-index protocol annotations and modifier chains
(window / offset / permit). During lowering, accesses are progressively
rewritten in place: tensor names become level cursors, and unfurled looplets
appear as Furl leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .expr import Expr, Extent, Lit, Read, Search, Var, eq, free_vars, keep, print_expr, walk


class CinError(Exception):
    """Frontend diagnostic (syntax, binding, or scope errors)."""


class CompileError(Exception):
    """A kernel that cannot be lowered with its bindings (formats, protocols,
    outputs)."""


# -- expression extensions ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class Access(Expr):
    """Tensor access; base is a tensor name until lowering installs cursors."""

    base: object
    idx: Tuple[Expr, ...]

    def children(self):
        if isinstance(self.base, Expr):
            return (self.base,) + self.idx
        return self.idx

    def map(self, fe, fs=None):
        base = fe(self.base) if isinstance(self.base, Expr) else self.base
        return Access(base, tuple(map(fe, self.idx)))

    def pprint(self, prec=0):
        base = self.base if isinstance(self.base, str) else print_expr(self.base)
        return f"{base}[{', '.join(print_expr(i) for i in self.idx)}]"


@dataclass(frozen=True, slots=True)
class Mod(Expr):
    """Index modifier applied around an index expression (innermost first)."""

    kind: str  # window | offset | permit
    params: Tuple[Expr, ...]
    inner: Expr

    def children(self):
        return self.params + (self.inner,)

    def map(self, fe, fs=None):
        return Mod(self.kind, tuple(map(fe, self.params)), fe(self.inner))

    def pprint(self, prec=0):
        inner = print_expr(self.inner)
        if self.params:
            ps = ", ".join(print_expr(p) for p in self.params)
            return f"{self.kind}({ps})[{inner}]"
        return f"{self.kind}[{inner}]"


@dataclass(frozen=True, slots=True)
class Proto(Expr):
    """Protocol annotation on an index use: i::gallop."""

    proto: str
    inner: Expr

    def children(self):
        return (self.inner,)

    def map(self, fe, fs=None):
        return Proto(self.proto, fe(self.inner))

    def pprint(self, prec=0):
        return f"{print_expr(self.inner)}::{self.proto}"


@dataclass(frozen=True, slots=True)
class Cursor(Expr):
    """A fiber handle installed as an access base during lowering: the fiber at
    1-based position `pos` within level `depth` of `tensor`."""

    tensor: str
    depth: int
    pos: Expr

    def children(self):
        return (self.pos,)

    def map(self, fe, fs=None):
        return Cursor(self.tensor, self.depth, fe(self.pos))

    def pprint(self, prec=0):
        return f"{self.tensor}@{self.depth}<{print_expr(self.pos)}>"


_furl_tags = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Furl(Expr):
    """An unfurled looplet over `index`; tag identifies the node during passes.
    A leaf of the traversal protocol: passes replace a furl whole, by tag."""

    looplet: object
    index: str
    tag: int = field(default_factory=lambda: next(_furl_tags))

    def pprint(self, prec=0):
        return f"<furl#{self.tag}:{self.index}>"


# -- statements ---------------------------------------------------------------


class Stmt:
    """CIN statement; same traversal protocol as `Expr`."""

    __slots__ = ()

    def children(self) -> tuple:
        return ()

    def map(self, fe, fs):
        return self


UPDATE_OPS = ("set", "add", "mul", "min", "max", "or")


@dataclass(frozen=True, slots=True)
class Assign(Stmt):
    lhs: Access
    op: str
    rhs: Expr

    def children(self):
        return (self.lhs, self.rhs)

    def map(self, fe, fs):
        return Assign(fe(self.lhs), self.op, fe(self.rhs))


@dataclass(frozen=True, slots=True)
class Forall(Stmt):
    idx: str
    ext: Optional[Extent]
    body: Stmt

    def children(self):
        if self.ext is None:
            return (self.body,)
        return (self.ext.start, self.ext.stop, self.body)

    def map(self, fe, fs):
        ext = self.ext
        if ext is not None:
            ext = Extent(fe(ext.start), fe(ext.stop))
        return Forall(self.idx, ext, fs(self.body))


@dataclass(frozen=True, slots=True)
class Where(Stmt):
    """consumer where producer; `inits` lists tensors whose init/finalize this
    statement owns (filled by assign_scopes)."""

    cons: Stmt
    prod: Stmt
    inits: Tuple[str, ...] = ()

    def children(self):
        return (self.cons, self.prod)

    def map(self, fe, fs):
        return Where(fs(self.cons), fs(self.prod), self.inits)


@dataclass(frozen=True, slots=True)
class Multi(Stmt):
    parts: Tuple[Stmt, ...]

    def children(self):
        return self.parts

    def map(self, fe, fs):
        return Multi(tuple(map(fs, self.parts)))


@dataclass(frozen=True, slots=True)
class Sieve(Stmt):
    cond: Expr
    body: Stmt

    def children(self):
        return (self.cond, self.body)

    def map(self, fe, fs):
        return Sieve(fe(self.cond), fs(self.body))


@dataclass(frozen=True, slots=True)
class PassStmt(Stmt):
    tensors: Tuple[str, ...]


# -- printer -------------------------------------------------------------------

# update operator -> its token, in CIN and in printed target IR; the parser
# reads the inverse
UPDATE_TOKEN = {"set": "=", "add": "+=", "mul": "*=", "min": "<<min>>=",
                "max": "<<max>>=", "or": "<<or>>="}


def print_stmt(s: Stmt) -> str:
    if isinstance(s, Assign):
        return f"{s.lhs.pprint()} {UPDATE_TOKEN[s.op]} {print_expr(s.rhs)}"
    if isinstance(s, Forall):
        chain = []
        cur = s
        while isinstance(cur, Forall) and cur.ext is None:
            chain.append(cur.idx)
            cur = cur.body
        if chain:
            return f"@V {' '.join(chain)} {_wrap(cur)}"
        ext = f" in {print_expr(s.ext.start)}:{print_expr(s.ext.stop)}"
        return f"@V {s.idx}{ext} {_wrap(s.body)}"
    if isinstance(s, Where):
        return f"({print_stmt(s.cons)}) where ({print_stmt(s.prod)})"
    if isinstance(s, Multi):
        return "@multi { " + "; ".join(print_stmt(p) for p in s.parts) + " }"
    if isinstance(s, Sieve):
        return f"@sieve {print_expr(s.cond)} {_wrap(s.body)}"
    if isinstance(s, PassStmt):
        return "@pass" + "".join(f" {t}" for t in s.tensors)
    raise TypeError(f"cannot print {s!r}")


def _wrap(s: Stmt) -> str:
    text = print_stmt(s)
    if isinstance(s, Multi):
        return text
    return f"({text})"


# -- structural helpers --------------------------------------------------------

# Reads, searches and cursor positions are target-level terms that earlier
# passes left inside CIN, already normalized by the index constructors. They
# hold no accesses or looplets: `simplify` and furl replacement leave them whole.
TARGET_TERMS = (Read, Search, Cursor)


def uses_index(e: Expr, idx: str) -> bool:
    """Whether `e` may depend on index `idx`: it mentions `idx`, or it holds an
    unresolved looplet, whose structure may depend on any index."""
    return any(isinstance(n, Furl) or (isinstance(n, Var) and n.name == idx) for n in walk(e))


def results(s: Stmt) -> Tuple[str, ...]:
    """The tensors a statement returns."""
    if isinstance(s, Assign):
        base = s.lhs.base
        return (base,) if isinstance(base, str) else ()
    if isinstance(s, (Forall, Sieve)):
        return results(s.body)
    if isinstance(s, Where):
        return results(s.cons)
    if isinstance(s, Multi):
        return tuple(dict.fromkeys(t for p in s.parts for t in results(p)))
    if isinstance(s, PassStmt):
        return s.tensors
    raise TypeError(f"no results for {s!r}")


def written_tensors(s: Stmt) -> Tuple[str, ...]:
    return tuple(dict.fromkeys(
        n.lhs.base for n in walk(s) if isinstance(n, Assign) and isinstance(n.lhs.base, str)))


# -- scope analysis ------------------------------------------------------------


def assign_scopes(s: Stmt):
    """Mark each Where with the tensors it initializes/finalizes.

    A result tensor is owned by the outermost where that has it on the
    producer (right-hand) side; everything else initializes at program start.
    Returns (annotated statement, program-start tensors).
    """
    seen: set = set()
    annotated = _own_scopes(s, seen)
    root = tuple(t for t in (results(s) + written_tensors(s)) if t not in seen)
    return annotated, tuple(dict.fromkeys(root))


def _own_scopes(node: Stmt, seen: set) -> Stmt:
    """`node` with each Where's `inits` filled; `seen` collects the owned
    tensors."""
    if isinstance(node, Where):
        owned = tuple(t for t in results(node.prod) if t not in seen)
        seen.update(owned)
        prod = _own_scopes(node.prod, seen)
        cons = _own_scopes(node.cons, seen)
        return Where(cons, prod, owned)
    out = node.map(keep, lambda c: _own_scopes(c, seen))
    if isinstance(node, Multi):
        claimed: dict = {}
        for p in node.parts:
            for t in written_tensors(p):
                if t in claimed and claimed[t] is not p:
                    raise CinError(
                        f"tensor {t!r} written in two parallel branches without a where")
                claimed[t] = p
    return out


def result_scopes(s: Stmt) -> dict:
    """tensor -> ('program',) or ('where', printed producer) init/finalize point."""
    annotated, root = assign_scopes(s)
    scopes = {t: ("program",) for t in root}
    for node in walk(annotated):
        if isinstance(node, Where):
            for t in node.inits:
                scopes[t] = ("where", print_stmt(node.prod))
    return scopes


# -- extent inference ------------------------------------------------------------


def _index_constraints(use: Expr, lo: Expr, hi: Expr, out: dict, strong: bool):
    """Record candidate extents for the index at the core of a use."""
    if isinstance(use, Var) and not use.name.startswith("$"):
        out.setdefault(use.name, []).append((Extent(lo, hi), strong))
        return
    if isinstance(use, Proto):
        _index_constraints(use.inner, lo, hi, out, strong)
        return
    if isinstance(use, Mod):
        from .expr import iadd, isub, ONE

        if use.kind == "window":
            a, b = use.params
            _index_constraints(use.inner, Lit(1), iadd(isub(b, a), ONE), out, strong)
        elif use.kind == "offset":
            d = use.params[0]
            _index_constraints(use.inner, iadd(lo, d), iadd(hi, d), out, strong)
        elif use.kind == "permit":
            _index_constraints(use.inner, lo, hi, out, False)
        return
    # opaque index expression: no constraint


def _gather_constraints(s: Stmt, dims: dict, out: dict, strict: bool = True):
    for sub in walk(s):
        if isinstance(sub, Access) and isinstance(sub.base, str):
            if sub.base not in dims:
                if strict:
                    raise CinError(f"kernel references unbound tensor {sub.base!r}")
                continue
            ds = dims[sub.base]
            if len(sub.idx) != len(ds):
                raise CinError(
                    f"tensor {sub.base!r} has rank {len(ds)}, accessed with "
                    f"{len(sub.idx)} indices")
            for k, use in enumerate(sub.idx):
                _index_constraints(use, Lit(1), Lit(ds[k]), out, True)


def _param_only(ext: Extent) -> bool:
    return all(v.startswith("$") for v in free_vars(ext.start) | free_vars(ext.stop))


def annotate_extents(s: Stmt, dims: dict, strict: bool = True) -> Stmt:
    """Fill in inferred extents for foralls without explicit bounds.

    The extent of an index comes from the dimensions of the tensor modes it
    addresses; all non-permit uses must agree. Permit-wrapped uses are weak
    fallbacks (permit lifts the bounds restriction).
    """
    constraints: dict = {}
    _gather_constraints(s, dims, constraints, strict)
    return _fill_extents(s, constraints, strict)


def _fill_extents(node: Stmt, constraints: dict, strict: bool) -> Stmt:
    if isinstance(node, Forall) and node.ext is None:
        node = Forall(node.idx, _pick_extent(node.idx, constraints, strict), node.body)
    return node.map(keep, lambda c: _fill_extents(c, constraints, strict))


def _pick_extent(idx: str, constraints: dict, strict: bool) -> Optional[Extent]:
    cands = constraints.get(idx, [])
    for tier in (True, False):
        tiered = [e for e, strong in cands if strong == tier]
        pref = [e for e in tiered if _param_only(e)] or tiered
        if pref:
            first = pref[0]
            for other in pref[1:]:
                if other != first:
                    raise CinError(
                        f"index {idx!r} has conflicting extents {first} and {other}")
            return first
    if not strict:
        return None
    raise CinError(f"cannot infer an extent for index {idx!r}")


# -- binder audit ---------------------------------------------------------------


def check_bindings(s: Stmt, bound: frozenset = frozenset(), all_seen: Optional[set] = None):
    """Every index is bound exactly once and every use is under its binder
    (a forall's extent is outside its own binder)."""
    if all_seen is None:
        all_seen = set()
    inner = bound
    if isinstance(s, Forall):
        if s.idx in all_seen:
            raise CinError(f"index {s.idx!r} bound more than once")
        all_seen.add(s.idx)
        inner = bound | {s.idx}
    for c in s.children():
        if isinstance(c, Stmt):
            check_bindings(c, inner, all_seen)
        else:
            _check_expr_bound(c, bound)


def _check_expr_bound(e: Expr, bound: set):
    for sub in walk(e):
        if isinstance(sub, Var) and not sub.name.startswith("$") and sub.name not in bound:
            raise CinError(f"unbound index {sub.name!r}")


# -- scatter normalization -------------------------------------------------------


def _is_plain_index(e: Expr) -> bool:
    if isinstance(e, (Var, Lit)):
        return True
    if isinstance(e, (Mod, Proto)):
        return _is_plain_index(e.inner)
    return False


def _fresh_index(used: set) -> str:
    for name in "jklmnpqruvw":
        if name not in used:
            used.add(name)
            return name
    for n in itertools.count(1):
        name = f"j{n}"
        if name not in used:
            used.add(name)
            return name
    raise AssertionError


def normalize_scatter(s: Stmt) -> Stmt:
    """Rewrite opaque read indices into fresh sieved loops:

        @V i A[i] = B[f(i)]   ->   @V i j @sieve j == f(i) (A[i] = B[j])
    """
    used = {n.idx for n in walk(s) if isinstance(n, Forall)}

    def visit(node: Stmt) -> Stmt:
        if isinstance(node, Assign):
            return _rewrite_assign(node, used)
        return node.map(keep, visit)

    return visit(s)


def _rewrite_assign(a: Assign, used: set) -> Stmt:
    fresh: list = []  # (sym, replaced expr) in source order

    def fix_index(e: Expr) -> Expr:
        if _is_plain_index(e):
            return e
        if isinstance(e, Mod):
            return Mod(e.kind, e.params, fix_index(e.inner))
        if isinstance(e, Proto):
            return Proto(e.proto, fix_index(e.inner))
        sym = _fresh_index(used)
        fresh.append((sym, e))
        return Var(sym)

    def fix_expr(e: Expr) -> Expr:
        if isinstance(e, Access):
            return Access(e.base, tuple(map(fix_index, e.idx)))
        return e.map(fix_expr)

    rhs = fix_expr(a.rhs)
    if not fresh:
        return a
    out: Stmt = Assign(a.lhs, a.op, rhs)
    for sym, e in reversed(fresh):
        out = Sieve(eq(Var(sym), e), out)
    for sym, _ in reversed(fresh):
        out = Forall(sym, None, out)
    return out
