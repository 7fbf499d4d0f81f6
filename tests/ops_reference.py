"""Reference scalar semantics for `tests/test_values.py`: `apply_op` as one
if-chain over the op name, frozen as it was before `values.OPS` replaced it.
It is never imported by coil; the table is compared with it on every op and
operand kind, so a fast path that drifts from the general semantics fails."""

import math

from coil.values import INT_MAX, INT_MIN, MISSING, EvalError


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_bool(v) -> bool:
    return isinstance(v, bool)


def _check_int(v: int) -> int:
    if not (INT_MIN <= v <= INT_MAX):
        raise EvalError(f"integer overflow: {v}")
    return v


def _num(v):
    if isinstance(v, bool):
        return int(v)
    if is_number(v):
        return v
    raise EvalError(f"expected a number, got {v!r}")


def _bool(v):
    if isinstance(v, bool):
        return v
    raise EvalError(f"expected a boolean, got {v!r}")


def _wrap(v):
    if isinstance(v, int) and not isinstance(v, bool):
        return _check_int(v)
    return v


def _is_zero(v) -> bool:
    return (is_number(v) or is_bool(v)) and _num(v) == 0


def apply_op(op: str, args: list):
    """Apply a scalar operation with missing-propagation semantics."""
    if op == "coalesce":
        for a in args:
            if a is not MISSING:
                return a
        return MISSING
    if op == "select":
        c, a, b = args
        if c is MISSING:
            return MISSING
        return a if _bool(c) else b
    # Absorbing elements take precedence over missing.
    if op == "mul" and any(_is_zero(a) for a in args):
        ty = "float" if any(isinstance(a, float) for a in args if a is not MISSING) else "int"
        return 0.0 if ty == "float" else 0
    if op == "and" and any(a is False for a in args):
        return False
    if op == "or" and any(a is True for a in args):
        return True
    if any(a is MISSING for a in args):
        return MISSING
    return _apply_strict(op, args)


def _apply_strict(op: str, args: list):
    if op == "add":
        acc = _num(args[0])
        for a in args[1:]:
            acc = acc + _num(a)
        return _wrap(acc)
    if op == "sub":
        return _wrap(_num(args[0]) - _num(args[1]))
    if op == "neg":
        return _wrap(-_num(args[0]))
    if op == "mul":
        acc = _num(args[0])
        for a in args[1:]:
            acc = acc * _num(a)
        return _wrap(acc)
    if op == "min":
        return min(_num(a) for a in args)
    if op == "max":
        return max(_num(a) for a in args)
    if op == "and":
        return all(_bool(a) for a in args)
    if op == "or":
        return any(_bool(a) for a in args)
    if op == "not":
        return not _bool(args[0])
    if op in ("eq", "ne"):
        a, b = args
        if is_bool(a) != is_bool(b):
            a, b = _num(a), _num(b)
        same = a == b
        return same if op == "eq" else not same
    if op in ("lt", "le", "gt", "ge"):
        a, b = _num(args[0]), _num(args[1])
        return {"lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b}[op]
    if op == "mod":
        a, b = _num(args[0]), _num(args[1])
        if b == 0:
            raise EvalError("mod by zero")
        return _wrap(a % b)
    if op == "pow":
        return _wrap(_num(args[0]) ** _num(args[1]))
    if op == "sqrt":
        a = _num(args[0])
        if a < 0:
            raise EvalError(f"sqrt of negative value {a}")
        return math.sqrt(a)
    if op == "round":
        a = _num(args[0])
        r = round(a)
        return float(r) if isinstance(a, float) else r
    if op == "abs":
        return _wrap(abs(_num(args[0])))
    raise EvalError(f"unknown operation {op!r}")
