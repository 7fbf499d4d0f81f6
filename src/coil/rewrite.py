"""Term-rewriting simplifier over CIN statements and expressions.

The rules are one fixed ordered list, `DEFAULT_RULES`, indexed once by the
node class each rule fires on. They are applied innermost-first,
left-to-right, and repeated to fixpoint; every rule either strictly shrinks
the term or removes a loop/sieve, so fixpoint is reached within a small
multiple of the node count (guarded).

Absorbing elements deliberately outrank missing-propagation: 0 annihilates a
product even when another factor might be missing at runtime, and the
interpreter and dense oracle implement the same choice.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .cin import (
    Access,
    Assign,
    Cursor,
    Forall,
    Furl,
    Multi,
    PassStmt,
    Sieve,
    Stmt,
    TARGET_TERMS,
    Where,
    results,
    uses_index,
)
from .expr import Call, Expr, FALSE, Lit, ONE, TRUE, _is_int, const_diff, le, walk
from .values import MISSING, EvalError, apply_op, is_number

Rule = Tuple[str, Callable]


class RewriteError(Exception):
    pass


# -- the rules ----------------------------------------------------------------


def _on(cls):
    """Mark a rule as one that can fire only on `cls` nodes: `simplify` offers
    it no other node, so the rule need not test the class."""
    def mark(fn):
        fn.on = cls
        return fn
    return mark


def _lit_missing(e) -> bool:
    return isinstance(e, Lit) and e.value is MISSING


def _unit_test(truth: bool, unit: int):
    """The test of a literal that is `truth` or a number equal to `unit`."""
    def test(e) -> bool:
        return isinstance(e, Lit) and (e.value is truth or (is_number(e.value) and e.value == unit))
    return test


_zero_like, _one_like = _unit_test(False, 0), _unit_test(True, 1)


@_on(Call)
def r_constant_fold(n):
    if n.op not in ("coalesce", "select"):
        if n.args and all(isinstance(a, Lit) for a in n.args):
            try:
                return Lit(apply_op(n.op, [a.value for a in n.args]))
            except EvalError:
                return None
    return None


@_on(Call)
def r_select_const(n):
    if n.op == "select":
        c = n.args[0]
        if _lit_missing(c):
            return Lit(MISSING)
        if isinstance(c, Lit) and isinstance(c.value, bool):
            return n.args[1] if c.value else n.args[2]
    return None


@_on(Forall)
def r_loop_over_pass(n):
    if isinstance(n.body, PassStmt):
        return n.body
    return None


@_on(Where)
def r_where_empty_pass(n):
    if isinstance(n.prod, PassStmt) and not n.prod.tensors:
        return n.cons
    return None


@_on(Sieve)
def r_sieve_resolve(n):
    if isinstance(n.cond, Lit):
        if n.cond.value is True:
            return n.body
        if n.cond.value is False:
            return PassStmt(results(n.body))
    return None


def _flatten(op: str):
    """The rule that splices `op` calls nested in an `op` call into it, in
    index arithmetic only (`_is_int`): each call of a value sum or product
    checks int overflow on its own exact result, and floats combine left to
    right, so splicing value calls can change the result."""

    @_on(Call)
    def rule(n):
        if (n.op == op and any(isinstance(a, Call) and a.op == op for a in n.args)
                and _is_int(n)):
            flat = []
            for a in n.args:
                if isinstance(a, Call) and a.op == op:
                    flat.extend(a.args)
                else:
                    flat.append(a)
            return Call(op, tuple(flat))
        return None

    return rule


def _is_float(e) -> bool:
    return isinstance(e, Lit) and type(e.value) is float


def _never_bool(e) -> bool:
    """Whether `e` is an int or float literal, or arithmetic, which gives a
    number (or missing), never a bool."""
    if isinstance(e, Lit):
        return type(e.value) in (int, float)
    return isinstance(e, Call) and e.op in ("add", "sub", "neg", "mul", "min", "max")


def _identity(op: str, is_unit, unit):
    """The rule that drops the operands of an `op` call for which `is_unit`
    holds (`unit` when none is left) and unwraps a call of one operand, where
    that cannot change the call's type. The call's value is a number, a
    float if an operand is: so a float unit stays but beside a float literal
    (`A[i] + 0.0` is a float where `A[i]` is an int), and the one operand a
    call is unwrapped to must be a number (`A[i] * 1` is an int where `A[i]`
    is a bool)."""

    @_on(Call)
    def rule(n):
        if n.op == op:
            floated = any(_is_float(a) and not is_unit(a) for a in n.args)
            kept = tuple(a for a in n.args if not is_unit(a) or (_is_float(a) and not floated))
            if not kept:
                return Lit(unit)
            if len(kept) == 1:
                return kept[0] if _never_bool(kept[0]) else None
            if len(kept) != len(n.args):
                return Call(op, kept)
        return None

    return rule


def _logic(op: str, halt: bool):
    """The rule that folds the literal operands of `and` (halting on false)
    or `or` (halting on true)."""
    stop, skip = (TRUE, FALSE) if halt else (FALSE, TRUE)

    @_on(Call)
    def rule(n):
        if n.op == op:
            if stop in n.args:
                return stop
            kept = tuple(a for a in n.args if a != skip)
            if not kept:
                return skip
            if len(kept) == 1:
                return kept[0]
            if len(kept) != len(n.args):
                return Call(op, kept)
        return None

    return rule


r_add_flatten = _flatten("add")
r_add_identity = _identity("add", _zero_like, 0)


@_on(Call)
def r_sub_normalize(n):
    if n.op == "sub":
        return Call("add", (n.args[0], Call("neg", (n.args[1],))))
    return None


@_on(Call)
def r_neg_neg(n):
    if n.op == "neg":
        a = n.args[0]
        if isinstance(a, Call) and a.op == "neg":
            return a.args[0]
    return None


r_mul_flatten = _flatten("mul")


def _annihilated(e) -> bool:
    """Whether `e` is a product with a zero operand: 0.0 when another operand
    is a float, else 0 (a zero beats missing)."""
    return isinstance(e, Call) and e.op == "mul" and any(map(_zero_like, e.args))


@_on(Call)
def r_mul_annihilate(n):
    """A product with a float literal operand and a zero is 0.0. Beside
    operands of unknown type an int zero is kept, since the product is 0.0
    where one of them is a float."""
    if _annihilated(n) and any(map(_is_float, n.args)):
        return Lit(0.0)
    return None


r_mul_identity = _identity("mul", _one_like, 1)


@_on(Call)
def r_mul_neg_hoist(n):
    if n.op == "mul":
        for k, a in enumerate(n.args):
            if isinstance(a, Call) and a.op == "neg":
                inner = n.args[:k] + (a.args[0],) + n.args[k + 1:]
                return Call("neg", (Call("mul", inner),))
    return None


r_and = _logic("and", False)
r_or = _logic("or", True)


@_on(Call)
def r_missing_propagate(n):
    if n.op not in ("coalesce", "select"):
        if any(_lit_missing(a) for a in n.args):
            return Lit(MISSING)
    return None


@_on(Call)
def r_coalesce(n):
    if n.op == "coalesce":
        kept = tuple(a for a in n.args if not _lit_missing(a))
        if not kept:
            return Lit(MISSING)
        if isinstance(kept[0], Lit):
            return kept[0]
        if len(kept) == 1:
            return kept[0]
        if len(kept) != len(n.args):
            return Call("coalesce", kept)
    return None


@_on(Access)
def r_access_missing_index(n):
    if any(_lit_missing(i) for i in n.idx):
        return Lit(MISSING)
    return None


@_on(Access)
def r_access_const_base(n):
    """An access whose base collapsed to a scalar denotes a constant subtree."""
    if isinstance(n.base, Lit):
        return n.base
    return None


@_on(Access)
def r_access_collapse_empty(n):
    """A fully-resolved access is just its scalar base."""
    if not n.idx and isinstance(n.base, Expr):
        if not isinstance(n.base, (Cursor, Furl)):
            return n.base
    return None


@_on(Assign)
def r_assign_identity(n):
    if isinstance(n.lhs.base, str):
        # an added zero, or a product with a zero (0 or 0.0), leaves the output as it is
        if n.op == "add" and (_zero_like(n.rhs) or _annihilated(n.rhs)):
            return PassStmt((n.lhs.base,))
        if n.op == "or" and n.rhs == FALSE:
            return PassStmt((n.lhs.base,))
        if n.op == "mul" and _one_like(n.rhs):
            return PassStmt((n.lhs.base,))
    return None


@_on(Forall)
def r_loop_invariant_update(n):
    """A loop repeating an invariant update collapses to a single update;
    repeated adds multiply by the trip count (stop - start + 1)."""
    if n.ext is None or not isinstance(n.body, Assign):
        return None
    a = n.body
    if a.op not in ("add", "min", "max", "or"):
        return None
    if not isinstance(a.lhs.base, str):
        return None
    i = n.idx
    if uses_index(a.rhs, i) or any(uses_index(x, i) for x in a.lhs.idx):
        return None
    trips = n.ext.length_expr()
    if a.op == "add" and trips != ONE:  # a single trip adds the value as it is
        rhs = Call("mul", (a.rhs, trips))
    else:
        rhs = a.rhs
    out = Assign(a.lhs, a.op, rhs)
    d = const_diff(n.ext.stop, n.ext.start)
    if d is not None:
        return out if d >= 0 else PassStmt(results(a))
    return Sieve(le(n.ext.start, n.ext.stop), out)


@_on(Multi)
def r_multi_trivial(n):
    if len(n.parts) == 1:
        return n.parts[0]
    if all(isinstance(p, PassStmt) for p in n.parts):
        out = []
        for p in n.parts:
            for t in p.tensors:
                if t not in out:
                    out.append(t)
        return PassStmt(tuple(out))
    return None


DEFAULT_RULES: List[Rule] = [
    ("constant_fold", r_constant_fold),
    ("select_const", r_select_const),
    ("loop_over_pass", r_loop_over_pass),
    ("where_empty_pass", r_where_empty_pass),
    ("sieve_resolve", r_sieve_resolve),
    ("add_flatten", r_add_flatten),
    ("add_identity", r_add_identity),
    ("sub_normalize", r_sub_normalize),
    ("neg_neg", r_neg_neg),
    ("mul_flatten", r_mul_flatten),
    ("mul_annihilate", r_mul_annihilate),
    ("mul_identity", r_mul_identity),
    ("mul_neg_hoist", r_mul_neg_hoist),
    ("and_rules", r_and),
    ("or_rules", r_or),
    ("missing_propagate", r_missing_propagate),
    ("coalesce_rules", r_coalesce),
    ("access_missing_index", r_access_missing_index),
    ("access_const_base", r_access_const_base),
    ("access_collapse_empty", r_access_collapse_empty),
    ("assign_identity", r_assign_identity),
    ("loop_invariant_update", r_loop_invariant_update),
    ("multi_trivial", r_multi_trivial),
]


def _index(rules: List[Rule]) -> Dict[type, List[Callable]]:
    """Node class -> the rule functions offered to it, in `rules` order."""
    by_class: Dict[type, List[Callable]] = {}
    for _, fn in rules:
        by_class.setdefault(fn.on, []).append(fn)
    return by_class


_BY_CLASS = _index(DEFAULT_RULES)


def simplify(node):
    """Rewrite a statement or expression to fixpoint, innermost first."""
    if not isinstance(node, (Expr, Stmt)):
        return node
    by_class = _BY_CLASS
    steps = 0
    limit = None  # 8 rewrites per node plus 64; nodes are counted once 64 have fired

    def go(n):
        nonlocal steps, limit
        while True:
            n2 = n if isinstance(n, TARGET_TERMS) else n.map(go, go)
            fired = None
            for rule in by_class.get(type(n2), ()):
                out = rule(n2)
                if out is not None and out != n2:
                    fired = out
                    break
            if fired is None:
                return n2
            steps += 1
            if steps > 64:
                if limit is None:
                    limit = 8 * sum(1 for _ in walk(node)) + 64
                if steps > limit:
                    raise RewriteError("simplification did not reach a fixpoint")
            n = fired

    return go(node)
