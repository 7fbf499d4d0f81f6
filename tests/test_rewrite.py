import random

from coil.cin import print_stmt
from coil.expr import Call, Lit, Var
from coil.oracle import DenseData, evaluate
from coil.parser import parse
import coil.rewrite as rw
from coil.rewrite import simplify


def simp_text(text):
    return print_stmt(simplify(parse(text)))


# -- the individual rules ------------------------------------------------------


def test_constant_folding():
    assert simp_text("@V i C[] += (2 + 3) * A[i]") == "@V i (C[] += 5 * A[i])"
    assert simp_text("A[] = min(4, 7) + 2 * 3") == "A[] = 10"


def test_loop_over_pass_elision():
    assert simp_text("@V i @pass C") == "@pass C"


def test_where_over_empty_pass_elision():
    assert simp_text("(@V i A[i] = B[i]) where (@pass)") == "@V i (A[i] = B[i])"


def test_add_identity_and_flattening():
    # a value sum keeps its calls: each checks int overflow on its own sum
    assert simp_text("C[] += A[] + (B[] + D[]) + 0") == "C[] += A[] + (B[] + D[])"
    # index arithmetic is spliced
    assert simp_text("@V i j C[i + (j + 1)] = A[i]") == "@V i j (C[i + j + 1] = A[i])"
    # a float zero makes an int sum a float: it goes only beside a float literal
    assert simp_text("C[] = A[] + 0.0") == "C[] = A[] + 0.0"
    x = Var("x")
    assert simplify(Call("add", (x, Lit(2.5), Lit(0.0)))) == Call("add", (x, Lit(2.5)))
    assert simplify(Call("add", (Lit(0), x, Lit(0.0)))) == Call("add", (x, Lit(0.0)))


def test_add_zero_assign_becomes_pass():
    assert simp_text("C[] += 0") == "@pass C"
    assert simp_text("C[] += 0.0") == "@pass C"
    assert simp_text("C[] += 1 - 1") == "@pass C"


def test_sub_normalization_and_double_negation():
    assert simp_text("C[] = A[] - B[]") == "C[] = A[] + -B[]"
    assert simp_text("C[] = --A[]") == "C[] = A[]"


def test_mul_rules():
    assert simp_text("C[] = A[] * (B[] * D[])") == "C[] = A[] * (B[] * D[])"
    assert simp_text("@V i j C[i * (j * 2)] = A[i]") == "@V i j (C[i * j * 2] = A[i])"
    assert simp_text("C[] = (A[] + B[]) * 1") == "C[] = A[] + B[]"
    # but not to a lone operand of unknown type: a bool times 1 is an int
    assert simp_text("C[] = A[] * 1") == "C[] = A[] * 1"
    assert simp_text("C[] += A[] * 0 * B[]") == "@pass C"
    # an int zero's product is 0.0 where an operand is a float, so it folds
    # only beside a float literal; added to an output it is dropped either way
    assert simp_text("C[] = A[] * 0") == "C[] = A[] * 0"
    assert simp_text("C[] = A[] * 0 * 2.5") == "C[] = 0.0"
    assert simp_text("C[] = A[] * 1.0") == "C[] = A[] * 1.0"
    assert simp_text("C[] = A[] * -B[]") == "C[] = -(A[] * B[])"
    assert simp_text("C[] *= 1") == "@pass C"


def test_zero_times_anything_is_pass():
    # the worked example: a zero run absorbs a whole region
    assert simp_text("@V i in 1:10 (C[] += 0 * x[])") == "@pass C"


def test_sieve_resolution():
    assert simp_text("@sieve true (A[] = 1)") == "A[] = 1"
    assert simp_text("@sieve false (A[i] = 1)") == "@pass A"
    assert simp_text("@sieve 2 < 1 (A[] = 1)") == "@pass A"


def test_or_rules():
    assert simp_text("C[] = A[] || false || B[]") == "C[] = A[] || B[]"
    assert simp_text("C[] = A[] || true") == "C[] = true"
    assert simp_text("C[] = false || false") == "C[] = false"


def test_and_rules():
    assert simp_text("C[] = A[] && true && B[]") == "C[] = A[] && B[]"
    assert simp_text("C[] = A[] && false") == "C[] = false"


def test_missing_propagation():
    assert simp_text("C[] = A[] + missing") == "C[] = missing"
    assert simp_text("C[] = A[missing]") == "C[] = missing"
    assert simp_text("C[] = coalesce(missing, A[], missing, B[])") == "C[] = coalesce(A[], B[])"
    assert simp_text("C[] = coalesce(missing, missing)") == "C[] = missing"
    # absorbing elements win over missing at compile time too
    assert simp_text("C[] += missing * 0") == "@pass C"


def test_loop_invariant_add_uses_inclusive_trip_count():
    assert simp_text("@V i in 1:10 (C[] += 5)") == "C[] += 50"
    assert simp_text("@V i in 1:$n (C[] += 5)") == "@sieve 1 <= $n (C[] += 5 * $n)"
    assert simp_text("@V i in 3:7 (C[] += A[])") == "C[] += A[] * 5"


def test_loop_invariant_min_update():
    assert simp_text("@V i in 1:10 (C[] <<min>>= 5)") == "C[] <<min>>= 5"
    assert simp_text("@V i in 1:$n (C[] <<min>>= A[])") == "@sieve 1 <= $n (C[] <<min>>= A[])"
    assert simp_text("@V i in 5:4 (C[] <<min>>= 5)") == "@pass C"


def test_loop_invariant_update_requires_invariance():
    assert simp_text("@V i in 1:5 (C[] += A[i])") == "@V i in 1:5 (C[] += A[i])"
    assert simp_text("@V i in 1:5 (C[i] += 3)") == "@V i in 1:5 (C[i] += 3)"


def test_identity_on_constant_free_kernel():
    text = "@V i j (y[i] += A[i, j] * x[j])"
    assert simp_text(text) == text


# -- engine properties ------------------------------------------------------------


def test_termination_on_random_terms():
    rng = random.Random(0)

    def gen_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["0", "1", "2.5", "A[]", "B[i]", "missing"])
        op = rng.choice(["+", "*", "-"])
        return f"({gen_expr(depth - 1)} {op} {gen_expr(depth - 1)})"

    for _ in range(60):
        text = f"@V i C[] += {gen_expr(4)}"
        s = parse(text)
        out = simplify(s)
        assert simplify(out) == out  # idempotent at fixpoint


    # the default registry is unaffected
    assert simp_text("C[] = f2x(A[])") == "C[] = f2x(A[])"


def random_kernel(rng):
    """Small random kernels over two vectors and a scalar output."""
    n = rng.randint(1, 6)
    consts = ["0", "1", "2", "0.0", "1.0", "3.0"]

    def expr(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(consts + ["A[i]", "B[i]", "A[i]", "B[i]"])
        k = rng.random()
        if k < 0.4:
            return f"({expr(depth - 1)} + {expr(depth - 1)})"
        if k < 0.7:
            return f"({expr(depth - 1)} * {expr(depth - 1)})"
        if k < 0.85:
            return f"({expr(depth - 1)} - {expr(depth - 1)})"
        return f"min({expr(depth - 1)}, {expr(depth - 1)})"

    op = rng.choice(["+=", "+=", "<<min>>=", "<<max>>="])
    return f"@V i in 1:{n} (C[] {op} {expr(rng.randint(1, 3))})", n


def eval_both(text, n, rng):
    stmt = parse(text)
    a = [float(rng.randint(-4, 4)) for _ in range(n)]
    b = [float(rng.randint(-4, 4)) for _ in range(n)]
    bind = lambda: {
        "A": DenseData([n], list(a)),
        "B": DenseData([n], list(b)),
        "C": DenseData([], [0.0]),
    }
    before = evaluate(stmt, bind())
    after = evaluate(simplify(stmt), bind())
    return before, after


def run_preservation(count, seed=0):
    rng = random.Random(seed)
    done = 0
    while done < count:
        text, n = random_kernel(rng)
        before, after = eval_both(text, n, rng)
        for name in before:
            assert name in after
            for x, y in zip(before[name], after[name]):
                assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1.0), text
        done += 1
    return done


def test_rewrite_preserves_semantics_sample():
    assert run_preservation(150, seed=5) == 150


def test_confluence_probe_shuffled_rule_order(monkeypatch):
    rng = random.Random(11)
    for trial in range(40):
        text, n = random_kernel(rng)
        stmt = parse(text)
        shuffled = list(rw.DEFAULT_RULES)
        rng.shuffle(shuffled)
        a = [float(rng.randint(-3, 3)) for _ in range(n)]
        bind = lambda: {
            "A": DenseData([n], list(a)),
            "B": DenseData([n], list(a)),
            "C": DenseData([], [0.0]),
        }
        r1 = evaluate(simplify(stmt), bind())
        with monkeypatch.context() as m:
            m.setattr(rw, "_BY_CLASS", rw._index(shuffled))
            r2 = evaluate(simplify(stmt), bind())
        for name in r1:
            for x, y in zip(r1[name], r2[name]):
                assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1.0)
