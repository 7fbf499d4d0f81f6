import pytest

from coil.cin import (
    Access,
    Assign,
    CinError,
    Forall,
    Mod,
    Multi,
    PassStmt,
    Proto,
    Sieve,
    Where,
    annotate_extents,
    assign_scopes,
    check_bindings,
    normalize_scatter,
    print_stmt,
    results,
)
from coil.expr import Call, Extent, Lit, Var, walk
from coil.parser import MAX_DEPTH, parse


def roundtrip(text):
    ast = parse(text)
    assert parse(print_stmt(ast)) == ast
    return ast


def test_dot_product():
    ast = roundtrip("@V i C[] += A[i] * B[i]")
    assert isinstance(ast, Forall) and ast.idx == "i"
    body = ast.body
    assert isinstance(body, Assign) and body.op == "add"
    assert body.lhs == Access("C", ())
    assert body.rhs == Call("mul", (Access("A", (Var("i"),)), Access("B", (Var("i"),))))


def test_triangle_kernel():
    ast = roundtrip("@V i j k C[] += A[i,j] && A[j,k] && A[k,i]")
    inner = ast.body.body.body
    assert isinstance(inner, Assign)
    assert inner.rhs.op == "and" and len(inner.rhs.args) == 3


def test_opaque_index_call():
    ast = roundtrip("@V i A[i] = B[f(i)]")
    assign = ast.body
    assert assign.rhs == Access("B", (Call("f", (Var("i"),)),))


def test_update_operators():
    for text, op in [("A[] = 1", "set"), ("A[] += 1", "add"), ("A[] *= 2", "mul"),
                     ("A[] <<min>>= 3", "min"), ("A[] <<max>>= 3", "max"),
                     ("A[] <<or>>= true", "or")]:
        assert parse(text).op == op


def test_modifiers_and_protocols():
    ast = roundtrip("@V i j y[i] += A[i, j::gallop] * x[permit[offset(2)[j]]]")
    assign = ast.body.body
    a_access, x_access = assign.rhs.args
    assert a_access.idx[1] == Proto("gallop", Var("j"))
    permit = x_access.idx[0]
    assert isinstance(permit, Mod) and permit.kind == "permit"
    assert isinstance(permit.inner, Mod) and permit.inner.kind == "offset"


def test_explicit_extent_and_params():
    ast = roundtrip("@V i in 1:$n (C[] += 5)")
    assert ast.ext == Extent(Lit(1), Var("$n"))
    ast2 = parse("@V i ∈ 2:4 (C[] += A[i])")
    assert ast2.ext == Extent(Lit(2), Lit(4))


def test_where_nests_inside_forall():
    ast = roundtrip(
        "@V k l ((O[k,l] = R[k] + R[l] - 2 * o[]) where (@V ij o[] += A[k,ij] * A[l,ij]))")
    assert isinstance(ast, Forall)
    w = ast.body.body
    assert isinstance(w, Where)


def test_multi_sieve_pass():
    ast = roundtrip("@multi { @V i A[i] = B[i]; @pass D }")
    assert isinstance(ast, Multi)
    assert isinstance(ast.parts[1], PassStmt) and ast.parts[1].tensors == ("D",)
    ast2 = roundtrip("@V j @sieve j == 3 (C[] += A[j])")
    assert isinstance(ast2.body, Sieve)


def test_comments_and_whitespace():
    ast = parse("# heading\n@V i # loop\n  C[] += A[i] # accumulate\n")
    assert isinstance(ast, Forall)


def test_syntax_error_reports_position():
    with pytest.raises(CinError) as e:
        parse("@V i C[] +=")
    assert "line 1" in str(e.value)


def test_protocol_on_non_index_rejected():
    with pytest.raises(CinError):
        parse("@V i C[] += (A[i] * 2)::gallop")


def test_unknown_protocol_rejected():
    with pytest.raises(CinError):
        parse("@V i C[] += A[i::sprint]")


def test_division_rejected():
    with pytest.raises(CinError):
        parse("@V i C[] += A[i] / 2")


@pytest.mark.parametrize("text", [
    "@V i C[i] = " + "(" * 1000 + "A[i]" + ")" * 1000,  # recursion in the parser
    "@V i C[i] = " + "-" * 1000 + "A[i]",
    "@V i C[i] = A[i]" + " ^ 2" * 1000,
    "@V i " + "@sieve A[i] > 0 " * 1000 + "C[i] += A[i]",
    "@V i C[i] = A[i]" + " - 1" * 1000,  # operator chains nest without recursion
    "@V i C[i] = A[i] " + "where C[i] = 0 " * 1000,
])
def test_over_deep_nesting_rejected(text):
    with pytest.raises(CinError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse(text)


# -- binder audit ------------------------------------------------------------


def test_unbound_index_rejected():
    with pytest.raises(CinError):
        check_bindings(parse("@V i C[] += A[i] * B[j]"))


def test_duplicate_binder_rejected():
    with pytest.raises(CinError):
        check_bindings(parse("@V i (@V i C[] += A[i])"))


def test_params_are_not_indices():
    check_bindings(parse("@V i C[] += A[i] * $alpha"))


def test_extent_uses_are_checked_outside_their_binder():
    check_bindings(parse("@V i (@V j in 1:i C[] += A[j])"))
    for text in ("@V i in 1:j C[] += A[i]", "@V i in 1:i C[] += A[i]"):
        with pytest.raises(CinError):
            check_bindings(parse(text))


# -- scatter normalization -----------------------------------------------------


def test_scatter_verbatim_form():
    got = normalize_scatter(parse("@V i A[i] = B[f(i)]"))
    assert print_stmt(got) == "@V i j (@sieve j == f(i) (A[i] = B[j]))"


def test_scatter_fixpoint_when_clean():
    ast = parse("@V i A[i] = B[i]")
    assert normalize_scatter(ast) == ast


def test_scatter_two_opaque_reads():
    got = normalize_scatter(parse("@V i A[i] = B[f(i)] + C[g(i)]"))
    text = print_stmt(got)
    assert "@sieve j == f(i)" in text and "@sieve k == g(i)" in text
    # loops are fresh and nested outer-to-inner in source order
    assert text.index("j") < text.index("k")
    check_bindings(got)


def test_scatter_preserves_semantics_by_oracle():
    import random

    from coil.oracle import DenseData, evaluate

    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 9)
        b = [float(rng.randint(0, 9)) for _ in range(n)]
        stmt = parse("@V i A[i] = B[n + 1 - i]")
        bind = {
            "A": DenseData([n], [0.0] * n),
            "B": DenseData([n], b),
        }
        # n appears as a free name; rewrite it to a literal via params-free path
        stmt = parse(f"@V i A[i] = B[{n} + 1 - i]")
        direct = evaluate(stmt, bind)
        normed = evaluate(normalize_scatter(stmt), bind)
        assert direct == normed


# -- results and scopes -----------------------------------------------------------


def test_results():
    assert results(parse("@V i A[i] = B[i]")) == ("A",)
    assert results(parse("(@pass C) where (@V i t[i] = B[i])")) == ("C",)
    assert results(parse("@multi { A[] = 1; B[] = 2 }")) == ("A", "B")
    assert results(parse("@pass X Y")) == ("X", "Y")


def test_assign_scopes_workspace():
    annotated, root = assign_scopes(parse(
        "@V k l ((O[k,l] = o[]) where (@V ij o[] += A[k,ij] * A[l,ij]))"))
    assert root == ("O",)
    where = annotated.body.body
    assert isinstance(where, Where) and where.inits == ("o",)


def test_assign_scopes_single_assign():
    annotated, root = assign_scopes(parse("@V i A[i] = B[i]"))
    assert root == ("A",)
    assert not any(isinstance(n, Where) for n in walk(annotated))


def test_assign_scopes_multi_independent():
    annotated, root = assign_scopes(parse("@multi { @V i A[i] = B[i]; @V j C[j] = B[j] }"))
    assert root == ("A", "C")
    assert not any(isinstance(n, Where) for n in walk(annotated))


def test_multi_conflicting_writes_rejected():
    with pytest.raises(CinError):
        assign_scopes(parse("@multi { @V i A[i] = B[i]; @V j A[j] = B[j] }"))


# -- extent inference -----------------------------------------------------------


def test_extent_inference_agrees():
    s = annotate_extents(parse("@V i C[] += A[i] * B[i]"), {"A": [7], "B": [7], "C": []})
    assert s.ext == Extent(Lit(1), Lit(7))


def test_extent_inference_conflict():
    with pytest.raises(CinError):
        annotate_extents(parse("@V i C[] += A[i] * B[i]"), {"A": [7], "B": [8], "C": []})


def test_extent_inference_permit_is_weak():
    s = annotate_extents(parse("@V i C[i] = coalesce(A[permit[i]], 0.0)"),
                         {"A": [9], "C": [4]})
    assert s.ext == Extent(Lit(1), Lit(4))  # C wins; the permit use does not constrain


def test_extent_inference_permit_fallback():
    # only permit uses exist: they still pin the extent as a fallback
    s = annotate_extents(parse("@V j C[] += coalesce(F[permit[j]], 0.0)"),
                         {"F": [3], "C": []})
    assert s.ext == Extent(Lit(1), Lit(3))


def test_extent_inference_window():
    s = annotate_extents(parse("@V k B[k] = A[window(3,5)[k]]"), {"A": [9], "B": [3]})
    assert s.ext == Extent(Lit(1), Lit(3))
