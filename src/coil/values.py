"""Scalar value domain: 64-bit ints, doubles, booleans, and the `missing` state.

`missing` propagates through every operation except `coalesce`, which returns
its first non-missing argument. Absorbing elements beat missing: 0 absorbs in
`mul`, false in `and`, true in `or`. Integer overflow is an error, not a wrap.
"""

from __future__ import annotations

import math

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


class EvalError(Exception):
    """Raised for domain errors during scalar evaluation."""


# Raised, with the condition's `value_repr`, by every evaluator of `select`
SELECT_NOT_BOOL = "select condition must be boolean, got {}"


class _Missing:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "missing"


MISSING = _Missing()

Value = object  # int | float | bool | _Missing


def is_missing(v) -> bool:
    return v is MISSING


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_bool(v) -> bool:
    return isinstance(v, bool)


def coerce(dtype: str, v):
    """Coerce a value to a tensor dtype at a write boundary.

    Booleans convert to 0/1 when written into numeric tensors (the update-op
    conversion used by counting kernels); everything else must already match.
    """
    if v is MISSING:
        raise EvalError("missing value reached a buffer write")
    if dtype == "bool":
        if isinstance(v, bool):
            return v
        raise EvalError(f"cannot store {v!r} in a bool tensor")
    if dtype == "int":
        if isinstance(v, bool):
            return int(v)
        if isinstance(v, int):
            return _check_int(v)
        raise EvalError(f"cannot store {v!r} in an int tensor")
    if dtype == "float":
        if isinstance(v, bool):
            return float(v)
        if isinstance(v, (int, float)):
            return float(v)
        raise EvalError(f"cannot store {v!r} in a float tensor")
    raise EvalError(f"unknown dtype {dtype!r}")


_DTYPE_TYPES = {"bool": bool, "int": int, "float": float}


def coercer(dtype: str):
    """`coerce` bound to one dtype, for a writer's per-entry path: a value
    already of the dtype's type (an int, in range) is returned as it is, and
    any other goes through `coerce`."""
    t = _DTYPE_TYPES.get(dtype)
    if t is int:
        def coerce_int(v):
            if type(v) is int and INT_MIN <= v <= INT_MAX:
                return v
            return coerce(dtype, v)
        return coerce_int

    def coerce_to(v):
        return v if type(v) is t else coerce(dtype, v)
    return coerce_to


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


# Operation table: name -> (min arity, max arity or None for n-ary).
OP_ARITY = {
    "add": (1, None),
    "sub": (2, 2),
    "neg": (1, 1),
    "mul": (1, None),
    "min": (1, None),
    "max": (1, None),
    "and": (0, None),
    "or": (0, None),
    "not": (1, 1),
    "eq": (2, 2),
    "ne": (2, 2),
    "lt": (2, 2),
    "le": (2, 2),
    "gt": (2, 2),
    "ge": (2, 2),
    "coalesce": (0, None),
    "select": (3, 3),
    "mod": (2, 2),
    "pow": (2, 2),
    "sqrt": (1, 1),
    "round": (1, 1),
    "abs": (1, 1),
}

# Ops safe to fold at compile time when all arguments are literal.
PURE_OPS = frozenset(OP_ARITY)


def apply_op(op: str, args: list) -> Value:
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


def _apply_strict(op: str, args: list) -> Value:
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


def additive_identity(v) -> bool:
    """True for 0, 0.0 and false (the values a += write can drop)."""
    return v is False or (is_number(v) and v == 0)


def multiplicative_identity(v) -> bool:
    return v is True or (is_number(v) and v == 1)


def value_repr(v) -> str:
    if v is MISSING:
        return "missing"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)
