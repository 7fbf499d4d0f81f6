import itertools
import math

import pytest

from coil.values import (
    EvalError,
    INT_MAX,
    INT_MIN,
    MISSING,
    OP_ARITY,
    OPS,
    apply_op,
    coerce,
    value_repr,
)

from ops_reference import apply_op as reference_op


def test_missing_propagates_through_calls():
    assert apply_op("add", [1, MISSING]) is MISSING
    assert apply_op("sub", [MISSING, 2.0]) is MISSING
    assert apply_op("eq", [MISSING, MISSING]) is MISSING
    assert apply_op("sqrt", [MISSING]) is MISSING


def test_coalesce_returns_first_non_missing():
    assert apply_op("coalesce", [MISSING, 3, 4]) == 3
    assert apply_op("coalesce", [MISSING, MISSING]) is MISSING
    assert apply_op("coalesce", []) is MISSING
    assert apply_op("coalesce", [0.0, MISSING]) == 0.0


def test_absorbing_elements_beat_missing():
    assert apply_op("mul", [0, MISSING]) == 0
    assert apply_op("mul", [MISSING, 0.0, 2.0]) == 0.0
    assert apply_op("and", [False, MISSING]) is False
    assert apply_op("or", [MISSING, True]) is True


def test_bool_promotion_in_arithmetic():
    assert apply_op("mul", [True, 2.5]) == 2.5
    assert apply_op("mul", [False, 2.5]) == 0
    assert apply_op("add", [True, True, 1]) == 3


def test_boolean_ops_reject_numbers():
    with pytest.raises(EvalError):
        apply_op("and", [1, True])
    with pytest.raises(EvalError):
        apply_op("not", [0])


def test_integer_overflow_is_an_error():
    with pytest.raises(EvalError):
        apply_op("mul", [INT_MAX, 2])
    assert apply_op("add", [INT_MAX, 0]) == INT_MAX


def test_comparisons_and_minmax():
    assert apply_op("lt", [1, 2]) is True
    assert apply_op("eq", [2.0, 2]) is True
    assert apply_op("ne", [True, False]) is True
    assert apply_op("min", [4, 2, 9]) == 2
    assert apply_op("max", [4, 2, 9]) == 9


def test_round_is_nearest_even():
    assert apply_op("round", [2.5]) == 2.0
    assert apply_op("round", [3.5]) == 4.0
    assert apply_op("round", [3]) == 3


def test_coerce_write_boundary():
    assert coerce("int", True) == 1
    assert coerce("float", 3) == 3.0
    with pytest.raises(EvalError):
        coerce("int", 2.5)
    with pytest.raises(EvalError):
        coerce("bool", 1)
    with pytest.raises(EvalError):
        coerce("float", MISSING)


def test_value_repr():
    assert value_repr(True) == "true"
    assert value_repr(MISSING) == "missing"
    assert value_repr(2.0) == "2.0"
    assert value_repr(7) == "7"


# -- the op table against the reference if-chain -------------------------------------

OPERANDS = [0, 1, -1, 7, INT_MAX, INT_MIN, 2**62, 0.0, -0.0, 1.5, -2.5,
            math.inf, -math.inf, math.nan, True, False, MISSING]


def _outcome(fn, args):
    """(result type, repr) or (exception type, message)."""
    try:
        v = fn(list(args))
    except Exception as ex:  # the reference leaks Python errors the table must match
        return type(ex), str(ex)
    return type(v), repr(v)


def _int_power_beyond_100(op, args) -> bool:
    """The reference computes such a power in full before its range check."""
    return (op == "pow" and len(args) >= 2 and MISSING not in args
            and type(args[0]) in (int, bool) and abs(args[0]) >= 2
            and type(args[1]) is int and args[1] > 100)


def test_op_table_covers_every_op():
    assert set(OPS) == set(OP_ARITY)


def test_op_table_matches_reference():
    """Every op at every operand count up to 3 over every operand kind: the
    same result type and repr, or the same exception and message. pow and
    round raise `EvalError` where the reference leaked a Python error or a
    complex; an int power beyond the int64 range is refused uncomputed."""
    compared = 0
    for op, fn in OPS.items():
        for n in range(4):
            for args in itertools.product(OPERANDS, repeat=n):
                got = _outcome(fn, args)
                if _int_power_beyond_100(op, args):
                    assert got == (EvalError, f"integer overflow: {args[0]} ** {args[1]}")
                    continue
                want = _outcome(lambda a: reference_op(op, a), args)
                if op in ("pow", "round") and want[0] in (
                        ZeroDivisionError, OverflowError, ValueError, complex):
                    assert got[0] is EvalError, (op, args, got)
                else:
                    assert got == want, (op, args)
                    compared += 1
    assert compared == 113_511


def test_pow_and_round_domain_errors():
    cases = [
        ("pow", [0.0, -1], "pow(0.0, -1): zero to a negative power"),
        ("pow", [0, -1], "pow(0, -1): zero to a negative power"),
        ("pow", [10.0, 400], "pow(10.0, 400): out of the float range"),
        ("pow", [-1.0, 0.5], "pow(-1.0, 0.5): negative base to a fractional power"),
        ("pow", [2, 64], "integer overflow: 2 ** 64"),
        ("pow", [2, 63], f"integer overflow: {2**63}"),
        ("round", [math.inf], "round of non-finite value inf"),
        ("round", [math.nan], "round of non-finite value nan"),
    ]
    for op, args, message in cases:
        with pytest.raises(EvalError) as err:
            apply_op(op, args)
        assert str(err.value) == message
    assert apply_op("pow", [-2, 63]) == INT_MIN
    assert apply_op("pow", [2, -1]) == 0.5
    assert apply_op("round", [1e300]) == 1e300
