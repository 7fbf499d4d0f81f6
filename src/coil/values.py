"""Scalar value domain: 64-bit ints, doubles, booleans, and the `missing` state.

`missing` propagates through every operation except `coalesce`, which returns
its first non-missing argument. Absorbing elements beat missing: 0 absorbs in
`mul`, false in `and`, true in `or`. Integer overflow is an error, not a wrap.

`OPS` maps each op name to one function of its operand list, and
`apply_op(op, args)` is `OPS[op](args)`: the interpreter, the output writers,
generated code's fallback, constant folding and the oracle all apply ops
through it. `add` and `mul` first test for two operands that are exactly int
or float, which skip the checks for bools and `missing`.

Domain errors are `EvalError`s, never Python exceptions or values outside the
domain: `mod` by zero, `sqrt` of a negative, `round` of inf or nan, and a
`pow` that raises zero to a negative power, leaves the float range or has no
real value. An int `pow` whose result must leave the int64 range is refused
before it is computed.
"""

from __future__ import annotations

import math
import operator

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
    if isinstance(v, (int, float)):
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

# -- the op table ------------------------------------------------------------------
#
# Each op is one function of its operand list. It applies the absorbing
# elements and missing propagation before the op itself. `add` and `mul`, the
# arithmetic of the dense blends the oracle checks, first test for two
# operands that are exactly int or float, which cannot be missing, bools or
# absorbing zeros of another type, and give such a pair the same result.

_NUMS = frozenset({int, float})


def _add(args):
    if len(args) == 2:
        a, b = args
        if type(a) in _NUMS and type(b) in _NUMS:
            return _wrap(a + b)
    if MISSING in args:
        return MISSING
    acc = _num(args[0])
    for a in args[1:]:
        acc = acc + _num(a)
    return _wrap(acc)


def _sub(args):
    if MISSING in args:
        return MISSING
    return _wrap(_num(args[0]) - _num(args[1]))


def _neg(args):
    if MISSING in args:
        return MISSING
    return _wrap(-_num(args[0]))


def _mul(args):
    if len(args) == 2:
        a, b = args
        if type(a) in _NUMS and type(b) in _NUMS:
            if a and b:
                return _wrap(a * b)
            return 0.0 if type(a) is float or type(b) is float else 0
    if 0 in args:  # an absorbing zero (0, 0.0, -0.0 or false) beats missing
        return 0.0 if any(isinstance(a, float) for a in args) else 0
    if MISSING in args:
        return MISSING
    acc = _num(args[0])
    for a in args[1:]:
        acc = acc * _num(a)
    return _wrap(acc)


def _min(args):
    if MISSING in args:
        return MISSING
    return min(_num(a) for a in args)


def _max(args):
    if MISSING in args:
        return MISSING
    return max(_num(a) for a in args)


def _and(args):
    if any(a is False for a in args):  # false beats missing
        return False
    if MISSING in args:
        return MISSING
    return all(_bool(a) for a in args)


def _or(args):
    if any(a is True for a in args):  # true beats missing
        return True
    if MISSING in args:
        return MISSING
    return any(_bool(a) for a in args)


def _not(args):
    if MISSING in args:
        return MISSING
    return not _bool(args[0])


def _equal(args) -> bool:
    a, b = args
    if is_bool(a) != is_bool(b):
        a, b = _num(a), _num(b)
    return a == b


def _eq(args):
    if MISSING in args:
        return MISSING
    return _equal(args)


def _ne(args):
    if MISSING in args:
        return MISSING
    return not _equal(args)


def _comparison(test):
    def compare(args):
        if MISSING in args:
            return MISSING
        return test(_num(args[0]), _num(args[1]))
    return compare


def _mod(args):
    if MISSING in args:
        return MISSING
    a, b = _num(args[0]), _num(args[1])
    if b == 0:
        raise EvalError("mod by zero")
    return _wrap(a % b)


def _pow(args):
    """An int power whose result must leave the int64 range is refused before
    it is computed; a float power that divides by zero, overflows or has no
    real value raises instead of leaking a Python error or a complex."""
    if MISSING in args:
        return MISSING
    a, b = _num(args[0]), _num(args[1])
    if type(a) is int and type(b) is int and b >= 0:
        if b >= 64 and abs(a) >= 2:  # |a| ** b >= 2 ** 64
            raise EvalError(f"integer overflow: {a} ** {b}")
        return _check_int(a ** b)
    try:
        v = a ** b
    except ZeroDivisionError:
        raise _pow_error(a, b, "zero to a negative power") from None
    except OverflowError:
        raise _pow_error(a, b, "out of the float range") from None
    if type(v) is complex:
        raise _pow_error(a, b, "negative base to a fractional power")
    return v


def _pow_error(a, b, reason: str) -> EvalError:
    return EvalError(f"pow({value_repr(a)}, {value_repr(b)}): {reason}")


def _sqrt(args):
    if MISSING in args:
        return MISSING
    a = _num(args[0])
    if a < 0:
        raise EvalError(f"sqrt of negative value {a}")
    return math.sqrt(a)


def _round(args):
    """Round half to even; a float stays a float. inf and nan have no nearest
    integer and raise."""
    if MISSING in args:
        return MISSING
    a = _num(args[0])
    if type(a) is int:
        return a
    if a - a == 0.0:  # finite
        return float(round(a))
    raise EvalError(f"round of non-finite value {value_repr(a)}")


def _abs(args):
    if MISSING in args:
        return MISSING
    return _wrap(abs(_num(args[0])))


def _coalesce(args):
    for a in args:
        if a is not MISSING:
            return a
    return MISSING


def _select(args):
    c, a, b = args
    if c is MISSING:
        return MISSING
    return a if _bool(c) else b


OPS = {
    "add": _add,
    "sub": _sub,
    "neg": _neg,
    "mul": _mul,
    "min": _min,
    "max": _max,
    "and": _and,
    "or": _or,
    "not": _not,
    "eq": _eq,
    "ne": _ne,
    "lt": _comparison(operator.lt),
    "le": _comparison(operator.le),
    "gt": _comparison(operator.gt),
    "ge": _comparison(operator.ge),
    "coalesce": _coalesce,
    "select": _select,
    "mod": _mod,
    "pow": _pow,
    "sqrt": _sqrt,
    "round": _round,
    "abs": _abs,
}


def apply_op(op: str, args: list) -> Value:
    """Apply a scalar operation with missing-propagation semantics."""
    return OPS[op](args)


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
