"""The generated-Python backend against the interpreter, its reference.

The equivalence gate runs every corpus kernel x admissible assignment through
both backends and requires identical buffers (value, type and sign of zero)
and identical counters; the parity tests require an `InterpError` from both
wherever the interpreter raises one.
"""

import math
import random

import pytest

from coil import codegen
from coil.api import (
    CODEGEN_MIN_ENTRIES,
    InputSpec,
    compile_kernel,
    execute,
    oracle_outputs,
    run_kernel,
    runtime,
)
from coil.cin import CinError
from coil.expr import Call, Lit, Read, Search, Var, iadd, le
from coil.interp import Buf, InterpError, run_program
from coil.parser import MAX_DEPTH, _height, parse
from coil.storage import to_dense
from coil.target import NOP, AssignVar, Block, BufferWrite, CallStmt, For, IfChain, Let, While
from coil.unfurl import WriterPlan
from coil.values import INT_MAX, MISSING
from coil.writers import make_writer

from test_acceptance import corpus_cases


def same(a, b) -> bool:
    """Equal in value and Python type; floats also in sign of zero (nan == nan)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


BACKENDS = (lambda *args: run_program(*args).counters, codegen.run_program)


def both(prog, make_state, params=None):
    """Run `prog` through each backend on fresh (buffers, writers) from
    `make_state`; return each run's buffer data, frozen outputs and counters."""
    out = []
    for run in BACKENDS:
        buffers, writers = make_state()
        counters = run(prog, buffers, params or {}, writers)
        data = {k: b.data for k, b in buffers.items()}
        data.update({f"{n} frozen": to_dense(w.freeze()) for n, w in writers.items()})
        out.append((data, counters.as_dict()))
    return out


def plain(**buffers):
    """State factory for hand-built programs: fresh copies of `buffers`, no writers."""
    return lambda: ({k: Buf(k, b.data, b.dtype) for k, b in buffers.items()}, {})


def assert_same_run(a, b):
    (data_a, counts_a), (data_b, counts_b) = a, b
    assert counts_a == counts_b
    assert data_a.keys() == data_b.keys()
    for name in data_a:
        assert len(data_a[name]) == len(data_b[name]), name
        assert all(same(x, y) for x, y in zip(data_a[name], data_b[name])), name


def test_equivalence_gate_corpus():
    """Every corpus kernel x assignment of the acceptance sweep, two seeds."""
    cases = 0
    for seed in (11, 12):
        for kernel, ins, outs, params, _ in corpus_cases(random.Random(seed), 1):
            compiled = compile_kernel(parse(kernel), ins, outs, params)
            mparams = {f"${k}": v for k, v in params.items()}
            assert_same_run(*both(compiled.program, lambda: runtime(compiled), mparams))
            cases += 1
    assert cases == 2 * 164


def test_absorbing_zero_keeps_positive_zero():
    prog = Block((
        BufferWrite("y", (Lit(1),), "set", Call("mul", (Read("a", (Lit(1),)), Read("b", (Lit(1),))))),
        BufferWrite("y", (Lit(2),), "set", Call("mul", (Read("a", (Lit(1),)), Read("b", (Lit(2),))))),
        BufferWrite("y", (Lit(3),), "set", Call("mul", (Var("$s"), Read("b", (Lit(1),))))),
    ))
    state = plain(a=Buf("a", [0.0], "float"), b=Buf("b", [-2.0, math.inf], "float"),
                  y=Buf("y", [1.0, 1.0, 1.0], "float"))
    a, b = both(prog, state, {"$s": -0.0})
    assert_same_run(a, b)
    assert [math.copysign(1.0, v) for v in b[0]["y"]] == [1.0, 1.0, 1.0]


def test_short_circuit_guards_bounds_and_counts():
    # p <= end && idx[p] == i: the read past the end must not happen
    cond = Call("and", (le(Var("p"), Lit(2)), Call("eq", (Read("idx", (Var("p"),)), Lit(5)))))
    prog = Block((
        Let("hits", Lit(0)),
        For("p", Lit(1), Lit(4), IfChain(((cond, AssignVar("hits", iadd(Var("hits"), Lit(1)))),))),
        BufferWrite("y", (Lit(1),), "set", Var("hits")),
    ))
    a, b = both(prog, plain(idx=Buf("idx", [5, 7]), y=Buf("y", [0], "int")))
    assert_same_run(a, b)
    assert b[1]["reads_by_buffer"] == {"idx": 2} and b[0]["y"] == [1]


def test_select_arms_and_elif_conditions_count_when_evaluated():
    v = lambda k: Read("v", (Lit(k),))
    prog = For("i", Lit(1), Lit(5), IfChain(
        ((Call("eq", (Var("i"), v(1))), BufferWrite("y", (Var("i"),), "set", v(2))),
         (Call("lt", (Var("i"), v(3))),
          BufferWrite("y", (Var("i"),), "set",
                      Call("select", (Call("gt", (Var("i"), Lit(3))), v(4), v(5)))))),
        BufferWrite("y", (Var("i"),), "add", Call("max", (v(1), v(2), Var("i"))))))
    a, b = both(prog, plain(v=Buf("v", [2, 10, 5, 20, 30]), y=Buf("y", [0] * 5, "int")))
    assert_same_run(a, b)
    assert b[0]["y"] == [30, 10, 30, 20, 10]


def test_search_matches_interpreter_probes():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 10)
        data = sorted(rng.sample(range(1, 40), n))
        lo, hi, key = rng.randint(0, n + 1), rng.randint(-1, n + 1), rng.randint(0, 41)
        prog = BufferWrite("y", (Lit(1),), "set", Search("b", Lit(lo), Lit(hi), Lit(key)))
        state = plain(b=Buf("b", data), y=Buf("y", [0]))
        try:
            want = both(prog, state)
        except InterpError:
            with pytest.raises(InterpError):
                codegen.run_program(prog, state()[0])
            continue
        assert_same_run(*want)


def test_execute_picks_backend_by_stored_entries():
    def spmspv(n):
        rng = random.Random(n)
        a = [rng.random() if rng.random() < 0.5 else 0.0 for _ in range(n * n)]
        x = [rng.random() if rng.random() < 0.5 else 0.0 for _ in range(n)]
        ins = {"A": InputSpec([n, n], a, format=["dense", "splist"]),
               "x": InputSpec([n], x, format=["splist"])}
        return compile_kernel(parse("@V i j y[i] += A[i,j] * x[j]"), ins)

    small, large = spmspv(8), spmspv(48)
    assert sum(len(b) for b in runtime(small)[0].values()) < CODEGEN_MIN_ENTRIES
    assert sum(len(b) for b in runtime(large)[0].values()) >= CODEGEN_MIN_ENTRIES
    assert execute(small).backend == "interp"
    r = execute(large)
    assert r.backend == "python"
    buffers, writers = runtime(large)
    m = run_program(large.program, buffers, writers=writers)
    assert r.counters.as_dict() == m.counters.as_dict()
    assert r.dense["y"] == [v for v in buffers["y_val"].data]


# -- error parity: whatever the interpreter rejects, the generated code rejects --------


def _writer(mode):
    return lambda: make_writer(WriterPlan("y", [4], 0.0, "float", [mode]))


PARITY = {
    "oob_read": (Let("x", Read("v", (Lit(9),))), {}, None),
    "oob_read_loop": (For("i", Lit(1), Lit(3), Let("x", Read("v", (Var("i"),)))), {}, None),
    "oob_write": (BufferWrite("y", (Lit(2),), "set", Lit(1.0)), {}, None),
    "oob_write_loop": (For("i", Lit(0), Lit(1), BufferWrite("y", (Var("i"),), "add", Lit(1.0))),
                       {}, None),
    "int_overflow_index": (Let("x", Read("v", (iadd(Var("$n"), Lit(1)),))), {"$n": INT_MAX}, None),
    "int_overflow_loop": (Block((Let("p", Var("$n")), For("i", Lit(1), Lit(2), AssignVar(
        "p", iadd(Var("p"), Lit(2**62)))))), {"$n": 2**62}, None),
    "missing_buffer_write": (BufferWrite("y", (Lit(1),), "set", Lit(MISSING)), {}, None),
    "missing_param_write": (BufferWrite("y", (Lit(1),), "add", Var("$m")), {"$m": MISSING}, None),
    "missing_append": (CallStmt("y.append_set", (Lit(1), Var("$m"))), {"$m": MISSING},
                       _writer("splist")),
    "missing_run_set": (CallStmt("y.run_set", (Lit(1), Lit(2), Lit(MISSING))), {}, _writer("rle")),
    "int_branch_condition": (IfChain(((Lit(1), NOP),)), {}, None),
    "missing_branch_condition": (IfChain(((Lit(False), NOP), (Var("$m"), NOP))), {"$m": MISSING},
                                 None),
    "missing_while_condition": (While(Var("$m"), NOP), {"$m": MISSING}, None),
    "missing_select_condition_write": (BufferWrite("y", (Lit(1),), "set", Call(
        "select", (Var("$m"), Lit(1.0), Lit(2.0)))), {"$m": MISSING}, None),
    "non_boolean_and": (Let("x", Call("and", (Lit(True), Lit(3)))), {}, None),
    "stuck_cursor": (Block((Let("x", Lit(1)), While(le(Var("x"), Lit(5)), AssignVar(
        "x", Var("x")), cursor="x"))), {}, None),
    "unbound_at_run_time": (IfChain(((le(Lit(1), Var("$n")), Let("x", Var("ghost"))),)),
                            {"$n": 3}, None),
    "undeclared_assignment": (For("i", Lit(1), Lit(1), AssignVar("ghost", Lit(1))), {}, None),
}


# One nesting shape each; NESTED[shape](d) nests d levels. Missing values
# reach every expression shape and `or` over maybe-missing operands, the
# deepest nesting of generated code per level.
NESTED = {
    "sqrt": lambda d: "@V i C[i] = coalesce(" + "sqrt(" * d + "2.0 * A[i]" + " + 1.0)" * d + ", 0.0)",
    "sub": lambda d: "@V i C[i] = coalesce(" + "A[i] - (" * d + "A[i]" + ")" * d + ", 0.0)",
    "max": lambda d: "@V i C[i] = coalesce(" + "max(A[i], " * d + "A[i]" + ")" * d + ", 0.0)",
    "or": lambda d: ("@V i C[i] = coalesce(select(" + "A[i] > 1.0 || (" * d + "A[i] < 0.7"
                     + ")" * d + ", 1.0, 2.0), 0.0)"),
    "sieve": lambda d: "@V i " + "@sieve coalesce(A[i], 0.0) > 0.6 " * d + "C[i] += A[i]",
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deepest_accepted_kernel_runs_everywhere(shape):
    """A kernel exactly as deep as the parser accepts is simplified, lowered,
    run by each backend and evaluated by the oracle."""
    levels = 1
    while True:
        try:
            parse(NESTED[shape](levels + 1))
        except CinError:
            break
        levels += 1
    text = NESTED[shape](levels)
    assert _height(parse(text)) == MAX_DEPTH
    for n, backend in ((8, "interp"), (CODEGEN_MIN_ENTRIES, "python")):
        rng = random.Random(n)
        a = [MISSING if k % 5 == 0 else rng.uniform(0.5, 1.5) for k in range(n)]
        ins = {"A": InputSpec([n], a, format=["dense"], fill=0.0, dtype="float")}
        got = run_kernel(text, ins)
        assert got.backend == backend
        want = oracle_outputs(text, ins)["C"]
        assert all(math.isclose(x, y, rel_tol=1e-12) for x, y in zip(got.dense["C"], want))


@pytest.mark.parametrize("name", sorted(PARITY))
def test_error_parity(name):
    prog, params, writer = PARITY[name]
    for run in BACKENDS:
        buffers = {"v": Buf("v", [1, 2]), "y": Buf("y", [0.0], "float")}
        writers = {"y": writer()} if writer else {}
        if writers:
            buffers = {"v": buffers["v"], **writers["y"].buffers}
        with pytest.raises(InterpError):
            run(prog, buffers, params, writers)


def test_unbound_name_off_the_taken_path_is_not_an_error():
    prog, _, _ = PARITY["unbound_at_run_time"]
    a, b = both(prog, plain(), {"$n": 0})
    assert_same_run(a, b)
