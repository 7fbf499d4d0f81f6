from coil.expr import (
    Call,
    Lit,
    Read,
    Var,
    const_diff,
    extent,
    iadd,
    imax,
    imin,
    imul,
    ineg,
    isub,
    print_expr,
    subst,
)


def test_constant_folding_in_constructors():
    assert iadd(Lit(2), Lit(3)) == Lit(5)
    assert imin(Lit(3), Lit(5)) == Lit(3)
    assert imax(Lit(3), Lit(5), Var("x")) == Call("max", (Var("x"), Lit(5)))
    assert imul(Lit(4), Lit(5)) == Lit(20)
    assert imul(Lit(1), Var("x")) == Var("x")
    assert imul(Lit(0), Var("x")) == Lit(0)


def test_min_max_flatten_and_dedupe():
    e = imin(imin(Var("a"), Var("b")), Var("a"), Lit(9), Lit(4))
    assert e == Call("min", (Var("a"), Var("b"), Lit(4)))


def test_add_cancellation():
    assert isub(Var("i"), Var("i")) == Lit(0)
    assert iadd(Var("i"), Lit(1), ineg(Var("i"))) == Lit(1)
    assert iadd(isub(Var("stop"), Var("start")), Lit(1), Var("start")) == iadd(
        Var("stop"), Lit(1))


def test_structural_equality_after_normalization():
    a = iadd(Var("x"), Lit(2), Lit(3))
    b = iadd(Lit(5), Var("x"))
    assert a == b


def test_const_diff():
    assert const_diff(Lit(7), Lit(3)) == 4
    assert const_diff(iadd(Var("s"), Lit(2)), Var("s")) == 2
    assert const_diff(Var("s"), Var("t")) is None


def test_extent_helpers():
    e = extent(3, 3)
    assert e.is_point()
    assert extent(1, 10).const_bounds() == (1, 10)
    assert extent(2, 5).length_expr() == Lit(4)
    # empty extent: start = stop + 1
    assert extent(4, 3).const_bounds() == (4, 3)


def test_subst_renormalizes():
    e = iadd(Var("i"), Lit(1))
    assert subst(e, {"i": Lit(4)}) == Lit(5)
    m = imin(Var("a"), Lit(9))
    assert subst(m, {"a": Lit(3)}) == Lit(3)


def test_subst_cancels_only_int_terms():
    """x + -(x) is 0 only for ints: a float x may be inf or nan. A sum that
    holds a value keeps all its terms, int ones too: floats add left to
    right, so cancelling i + -(i) there can change the result."""
    i = Var("i")
    value = Call("mul", (Read("A_val", (Var("k"),)), Lit(10.0)))
    body = Call("add", (value, Call("neg", (value,)), i, Call("neg", (Var("j"),))))
    read = subst(value, {"k": i})
    assert subst(body, {"k": i, "j": i}) == Call(
        "add", (read, Call("neg", (read,)), i, Call("neg", (i,))))
    param = Call("add", (Var("$s"), Call("neg", (Var("$s"),))))
    assert subst(param, {}) == param
    assert subst(Call("add", (Var("p"), Call("neg", (Var("q"),)))), {"q": Var("p")}) == Lit(0)


def test_printing():
    assert print_expr(iadd(Var("a"), Var("b"))) == "a + b"
    assert print_expr(Call("mul", (Var("a"), iadd(Var("b"), Lit(1))))) == "a * (b + 1)"
    assert print_expr(imin(Var("x"), Lit(8))) == "min(x, 8)"
    assert print_expr(Call("eq", (Var("i"), Lit(3)))) == "i == 3"


def test_subst_keeps_value_min_max_and_neg_as_written():
    """A value `min`, `max` or `neg` keeps its operands in the kernel's
    order: max(0, -0.0) is 0 but max(-0.0, 0) is -0.0, and -(-x) overflows
    where x is the least int. The same calls in a subscript are index
    arithmetic, and are normalized."""
    a = Read("A_val", (Var("k"),))
    for op in ("min", "max"):
        value = Call(op, (Lit(0), a))
        assert subst(value, {"k": Var("i")}) == Call(op, (Lit(0), Read("A_val", (Var("i"),))))
        index = Read("B_val", (Call(op, (Lit(0), Var("k"))),))
        assert subst(index, {"k": Var("i")}) == Read("B_val", (Call(op, (Var("i"), Lit(0))),))
    twice = Call("neg", (Call("neg", (Var("$p"),)),))
    assert subst(twice, {}) == twice
    assert subst(Call("neg", (Call("neg", (Var("k"),)),)), {"k": Var("i")}) == Var("i")


def test_literals_are_equal_when_they_print_alike():
    one = [Lit(1), Lit(1.0), Lit(True)]
    assert all(a != b for k, a in enumerate(one) for b in one[k + 1:])
    assert Lit(0.0) != Lit(-0.0) and Lit(0) != Lit(False)
    assert Lit(float("nan")) == Lit(float("nan"))
    for v in (1, 1.0, True, -0.0, float("nan"), 2 ** 63 - 1):
        assert Lit(v) == Lit(v) and hash(Lit(v)) == hash(Lit(v))
    # so do the nodes that hold them
    assert Call("mul", (Var("x"), Lit(2))) != Call("mul", (Var("x"), Lit(2.0)))
    assert len({Lit(0.0), Lit(-0.0), Lit(0), Lit(False)}) == 4
