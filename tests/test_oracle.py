"""The dense oracle: its errors, raised only by code that runs and each with
its pinned message; its independence from the compiler; and the garbage a
warm job leaves."""

import ast
import gc
import pathlib

import pytest

from coil.api import InputSpec, compile_kernel, execute, oracle_outputs
from coil.cin import Access, Assign, Forall, Mod, Multi
from coil.expr import Call, Extent, Lit, Read, Var
from coil.oracle import DenseData, OracleError, evaluate
from coil.parser import parse
from coil.values import MISSING

ORACLE = pathlib.Path(__file__).parent.parent / "src" / "coil" / "oracle.py"


def dense(data, dtype="float"):
    return DenseData([len(data)], list(data), 0.0 if dtype == "float" else 0, dtype)


def at_i(rhs):
    """@V i in 1:3 C[i] = rhs, built directly: the parser rejects some rhs."""
    return Forall("i", Extent(Lit(1), Lit(3)), Assign(Access("C", (Var("i"),)), "set", rhs))


A = [0.5, -1.0, 2.0]
# kernel -> (A's data, the message); C is a float vector of 3
ERRORS = [
    ("@pass T", A, "tensor 'T' is written but not bound"),
    ("@V i @sieve A[i] > 0.0 (C[i] = 1.0)", [1.0, MISSING, 2.0],
     "missing value in a sieve condition"),
    ("@V i @sieve A[i] (C[i] = 1.0)", A, "sieve condition must be boolean"),
    ("@V i C[i] = A[i]", [1.0, MISSING, 2.0], "missing value written to C"),
    ("@V i C[permit[i]] = A[i]", A + [1.0], "missing index in an assignment target"),
    ("@V i in 1:4 C[i] = 1.0", A, "write index 4 out of bounds for C"),
    ("@V i in 1:4 C[1] += A[i]", A, "read index 4 out of bounds for A mode 1"),
    ("@V i C[i] = A[i] * $p", A, "unbound parameter $p"),
    ("@V i C[i] = select(A[i], 1.0, 2.0)", A, "select condition must be boolean, got 0.5"),
    ("@V i C[i] = select(A[i] > 0.0 && A[i], 1.0, 2.0)", A, "and over non-boolean 0.5"),
    ("@V i C[i] = sqrt(A[i])", A, "sqrt of negative value -1.0"),
    ("@V i C[i] = A[i] + A[1.5]", A, "index evaluated to non-integer 1.5"),
    (at_i(Var("j")), A, "unbound index 'j'"),
    (at_i(Mod("permit", (), Var("i"))), A, "index modifier outside an access"),
    (at_i(Read("x", ())), A, "cannot evaluate Read(buf='x', idx=())"),
    (at_i(Access(Var("A"), (Var("i"),))), A, "oracle accesses must name tensors directly"),
    (at_i(Access("A", (Mod("zoom", (), Var("i")),))), A, "unknown modifier 'zoom'"),
]


@pytest.mark.parametrize("kernel,a,message", ERRORS)
def test_oracle_error_messages(kernel, a, message):
    stmt = parse(kernel) if isinstance(kernel, str) else kernel
    with pytest.raises(OracleError) as err:
        evaluate(stmt, {"A": dense(a), "C": dense([0.0] * 3)})
    assert str(err.value) == message


def test_errors_in_code_that_never_runs_are_not_raised():
    bind = {"A": dense(A), "C": dense([0.0] * 3)}
    zero_trip = "@V i in 2:1 C[i] = A[i] * $p"
    assert evaluate(parse(zero_trip), bind) == {"C": [0.0] * 3}
    untaken = at_i(Call("select", (Lit(True), Lit(1.0), Call("sqrt", (Lit(-1.0),)))))
    assert evaluate(untaken, bind) == {"C": [1.0] * 3}
    with pytest.raises(OracleError, match=r"^unbound parameter \$p$"):
        evaluate(parse("@V i in 1:1 C[i] = A[i] * $p"), bind)


def test_a_loop_restores_the_index_it_shadows():
    i = Var("i")
    inner = Forall("i", Extent(Lit(1), Lit(3)), Assign(Access("C", (i,)), "add", Lit(1.0)))
    outer = Forall("i", Extent(Lit(1), Lit(2)), Multi((
        inner, Assign(Access("D", (i,)), "set", Access("A", (i,))))))
    out = evaluate(outer, {"A": dense([5.0, 6.0, 7.0]), "C": dense([0.0] * 3),
                           "D": dense([0.0] * 3)})
    assert out == {"C": [2.0] * 3, "D": [5.0, 6.0, 0.0]}


def test_initialized_tensors_get_arrays_of_their_own():
    """The oracle reads inputs in place but resets what the kernel
    initializes in arrays of its own, so no caller's list changes."""
    a, c = [1.0, 2.0, 3.0], [7.0, 7.0, 7.0]
    bind = {"A": DenseData([3], a), "C": DenseData([3], c)}
    out = evaluate(parse("(@V i C[i] = T[i] * A[i]) where (@V i T[i] = A[i] + 1.0)"),
                   {**bind, "T": DenseData([3], [9.0] * 3)})
    assert out == {"C": [2.0, 6.0, 12.0], "T": [2.0, 3.0, 4.0]}
    assert evaluate(parse("@pass A"), bind) == {"A": [0.0] * 3}
    assert a == [1.0, 2.0, 3.0] and c == [7.0] * 3


def test_oracle_imports_no_compiler_module():
    imported = {n.module for n in ast.walk(ast.parse(ORACLE.read_text()))
                if isinstance(n, ast.ImportFrom) and n.level == 1}
    assert imported == {"cin", "expr", "values"}


def test_warm_job_leaves_no_cyclic_garbage():
    """Parsing, a cache hit of `compile_kernel`, `execute` and the oracle
    free what they allocate by reference counting alone."""
    kernel = "@V i j C[i, j] = round($a * B[i, j] + 0.5 * coalesce(B[i, permit[j]], 0.0))"
    ins = {"B": InputSpec([3, 4], [float(k % 5) for k in range(12)], format=["dense", "rle"])}
    params = {"a": 0.25}

    def job():
        stmt = parse(kernel)
        execute(compile_kernel(stmt, ins, None, params), params)
        oracle_outputs(stmt, ins, None, params)

    job()
    gc.collect()
    gc.disable()
    try:
        job()
        assert gc.collect() == 0
    finally:
        gc.enable()
