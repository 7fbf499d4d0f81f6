"""The generated-Python backend against the interpreter, its reference.

The equivalence gate runs every corpus kernel x admissible assignment through
the interpreter and through generated code, generated afresh (cold) and then
reused on a fresh state (warm), and requires identical buffers (value, type
and sign of zero) and identical counters; the parity tests require the same
`InterpError` message from all three wherever the interpreter raises one.
"""

import math
import random
import re

import pytest

from coil import codegen
from coil.api import (
    CODEGEN_MIN_ENTRIES,
    InputSpec,
    Lowered,
    OutputSpec,
    compile_kernel,
    execute,
    oracle_outputs,
    run_kernel,
    runtime,
)
from coil.cin import CinError
from coil.expr import Call, Lit, Read, Search, Var, iadd, le
from coil.interp import Buf, InterpError, run_program
from coil.oracle import OracleError
from coil.parser import MAX_DEPTH, _height, parse
from coil.storage import to_dense
from coil.target import NOP, AssignVar, Block, BufferWrite, CallStmt, For, IfChain, Let, While
from coil.unfurl import WriterPlan
from coil.values import INT_MAX, MISSING, value_repr

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


KEPT = Lowered(NOP)  # the entry of the program `cold` ran last, with its code


@pytest.fixture(autouse=True)
def drop_kept():
    """Each test's `cold` runs keep their code in `KEPT` for its `warm` runs
    only: a later test (in any module) that counts live code sees none."""
    yield
    global KEPT
    KEPT = Lowered(NOP)


def cold(prog, buffers, params, writers):
    """Generated code, generated for this run and kept for `warm`."""
    global KEPT
    KEPT = Lowered(prog)
    code, reuse = codegen.generated(KEPT, buffers, params, writers)
    assert reuse == "fresh"
    return code(buffers, params, writers)


def warm(prog, buffers, params, writers):
    """Generated code reused from the `cold` run of `prog` on the same facts."""
    assert KEPT.program is prog
    code, reuse = codegen.generated(KEPT, buffers, params, writers)
    assert reuse == "cached"
    return code(buffers, params, writers)


# the reference, then generated code cold and warm, in this order
BACKENDS = (lambda *args: run_program(*args).counters, cold, warm)


def agree(prog, make_state, params=None):
    """Run `prog` through each backend on fresh (buffers, writers) from
    `make_state`, require the same buffer data, frozen outputs and counters
    from all, and return the last run's."""
    out = []
    for run in BACKENDS:
        buffers, writers = make_state()
        counters = run(prog, buffers, params or {}, writers)
        data = {k: b.data for k, b in buffers.items()}
        data.update({f"{n} frozen": to_dense(w.freeze()) for n, w in writers.items()})
        out.append((data, counters.as_dict()))
    for other in out[1:]:
        assert_same_run(out[0], other)
    return out[-1]


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
            agree(compiled.program, lambda: runtime(compiled), mparams)
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
    b = agree(prog, state, {"$s": -0.0})
    assert [math.copysign(1.0, v) for v in b[0]["y"]] == [1.0, 1.0, 1.0]


def test_short_circuit_guards_bounds_and_counts():
    # p <= end && idx[p] == i: the read past the end must not happen
    cond = Call("and", (le(Var("p"), Lit(2)), Call("eq", (Read("idx", (Var("p"),)), Lit(5)))))
    prog = Block((
        Let("hits", Lit(0)),
        For("p", Lit(1), Lit(4), IfChain(((cond, AssignVar("hits", iadd(Var("hits"), Lit(1)))),))),
        BufferWrite("y", (Lit(1),), "set", Var("hits")),
    ))
    b = agree(prog, plain(idx=Buf("idx", [5, 7]), y=Buf("y", [0], "int")))
    assert b[1]["reads_by_buffer"] == {"idx": 2} and b[0]["y"] == [1]


def test_select_arms_and_elif_conditions_count_when_evaluated():
    v = lambda k: Read("v", (Lit(k),))
    prog = For("i", Lit(1), Lit(5), IfChain(
        ((Call("eq", (Var("i"), v(1))), BufferWrite("y", (Var("i"),), "set", v(2))),
         (Call("lt", (Var("i"), v(3))),
          BufferWrite("y", (Var("i"),), "set",
                      Call("select", (Call("gt", (Var("i"), Lit(3))), v(4), v(5)))))),
        BufferWrite("y", (Var("i"),), "add", Call("max", (v(1), v(2), Var("i"))))))
    b = agree(prog, plain(v=Buf("v", [2, 10, 5, 20, 30]), y=Buf("y", [0] * 5, "int")))
    assert b[0]["y"] == [30, 10, 30, 20, 10]


def test_reused_reads_respect_writes_assignments_and_branches():
    """A read is reused only where an earlier read of the same slot dominates
    it with no write to the buffer and no assignment to the index between."""
    v = lambda idx: Read("v", (idx,))
    y = lambda k, val: BufferWrite("y", (Lit(k),), "add", val)
    prog = Block((Let("q", Lit(1)), y(8, v(Var("q"))), For("i", Lit(1), Lit(4), Block((
        y(8, v(Var("q"))),                      # q is assigned later in the body
        Let("p", Lit(1)),
        y(1, v(Var("p"))),
        BufferWrite("v", (Var("p"),), "add", Var("i")),
        y(2, v(Var("p"))),                      # after a write to v
        AssignVar("p", iadd(Var("p"), Lit(1))),
        y(3, v(Var("p"))),                      # after an assignment to p
        IfChain(((Call("gt", (Var("i"), Lit(2))), y(4, v(Lit(3)))),)),
        y(5, v(Lit(3))),                        # after a branch that read it
        y(6, Call("select", (Call("lt", (Var("i"), Lit(3))), v(Lit(2)), v(Lit(3))))),
        y(7, v(Lit(2))),                        # after a select arm that read it
        AssignVar("q", Lit(2)),
    ))), For("i", Lit(1), Lit(0), y(9, v(Lit(3)))), y(9, v(Lit(3)))))
    b = agree(prog, plain(v=Buf("v", [1, 2, 3], "int"), y=Buf("y", [0] * 9, "int")))
    assert b[0]["y"] == [1 + 2 + 4 + 7, 2 + 4 + 7 + 11, 8, 6, 12, 10, 8, 1 + 1 + 2 * 3, 3]


def test_conditions_with_statements():
    """A `while` or later `elif` condition that needs statements of its own:
    the loop tests it at the top of each iteration, the chain evaluates it
    only when every earlier case failed."""
    v = lambda idx: Read("v", (idx,))
    walk = Call("and", (le(Var("p"), Lit(4)), Call("lt", (v(Var("p")), Lit(9)))))
    chain = IfChain((
        (Call("eq", (v(Var("p")), Lit(2))), BufferWrite("y", (Lit(1),), "add", Lit(1))),
        (Call("and", (Call("gt", (Var("p"), Lit(1))), Call("lt", (v(Var("p")), Lit(6))))),
         BufferWrite("y", (Lit(2),), "add", Var("p"))),
        (Call("gt", (Var("p"), Lit(3))), BufferWrite("y", (Lit(3),), "add", Lit(1))),
    ), BufferWrite("y", (Lit(4),), "add", v(Var("p"))))
    prog = Block((Let("p", Lit(1)), Let("x", v(Var("p"))), While(walk, Block((
        chain, AssignVar("p", iadd(Var("p"), Lit(1))))), cursor="p")))
    state = plain(v=Buf("v", [1, 2, 5, 7, 9], "int"), y=Buf("y", [0] * 4, "int"))
    b = agree(prog, state)
    assert b[0]["y"] == [1, 3, 1, 1]
    buffers, writers = state()
    source = codegen._source(prog, codegen._Facts(buffers, writers, {}))[0]
    assert "while True:" in source and re.search(r"\n *t\d+ = True\n", source)


def test_search_matches_interpreter_probes():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 10)
        data = sorted(rng.sample(range(1, 40), n))
        lo, hi, key = rng.randint(0, n + 1), rng.randint(-1, n + 1), rng.randint(0, 41)
        prog = BufferWrite("y", (Lit(1),), "set", Search("b", Lit(lo), Lit(hi), Lit(key)))
        state = plain(b=Buf("b", data), y=Buf("y", [0]))
        try:
            agree(prog, state)
        except InterpError:
            with pytest.raises(InterpError):
                codegen.run_program(prog, state()[0])


def test_execute_picks_backend_by_stored_entries(programs):
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
    assert (execute(small).backend, execute(small).codegen) == ("interp", None)
    r = execute(large)
    assert (r.backend, r.codegen) == ("python", "fresh")
    assert execute(large).codegen == "cached"
    buffers, writers = runtime(large)
    m = run_program(large.program, buffers, writers=writers)
    assert r.counters.as_dict() == m.counters.as_dict()
    assert r.dense["y"] == [v for v in buffers["y_val"].data]


# -- error parity: whatever the interpreter rejects, the generated code rejects --------


def _writer(mode, fill=0.0, dtype="float", rows=0):
    """A writer of output y, a vector of 4 or, with `rows`, a rows x 4
    matrix whose last mode is `mode`."""
    plan = WriterPlan("y", [rows, 4] if rows else [4], fill, dtype,
                      ["dense", mode] if rows else [mode])
    return lambda: plan.writer(plan)


def _hooks(*calls):
    """A block of writer hook calls on y, each (action, literal arguments)."""
    return Block(tuple(CallStmt(f"y.{fn}", tuple(map(Lit, args))) for fn, args in calls))


PARITY = {
    "oob_read": (Let("x", Read("v", (Lit(9),))), {}, None),
    "oob_read_loop": (For("i", Lit(1), Lit(3), Let("x", Read("v", (Var("i"),)))), {}, None),
    "oob_write": (BufferWrite("y", (Lit(2),), "set", Lit(1.0)), {}, None),
    "oob_write_loop": (For("i", Lit(0), Lit(1), BufferWrite("y", (Var("i"),), "add", Lit(1.0))),
                       {}, None),
    "int_overflow_index": (Let("x", Read("v", (iadd(Var("$n"), Lit(1)),))), {"$n": INT_MAX}, None),
    "int_overflow_loop": (Block((Let("p", Var("$n")), For("i", Lit(1), Lit(2), AssignVar(
        "p", iadd(Var("p"), Lit(2**62)))))), {"$n": 2**62}, None),
    "int_overflow_accumulate": (BufferWrite("v", (Lit(2),), "add", Var("$n")), {"$n": INT_MAX},
                                None),
    "missing_buffer_write": (BufferWrite("y", (Lit(1),), "set", Lit(MISSING)), {}, None),
    "missing_param_write": (BufferWrite("y", (Lit(1),), "add", Var("$m")), {"$m": MISSING}, None),
    "missing_append": (CallStmt("y.append_set", (Lit(1), Var("$m"))), {"$m": MISSING},
                       _writer("splist")),
    "missing_run_set": (CallStmt("y.run_set", (Lit(1), Lit(2), Lit(MISSING))), {}, _writer("rle")),
    "int_overflow_append": (Block((CallStmt("y.append_add", (Lit(1), Var("$n"))),) * 2),
                            {"$n": 2**62}, _writer("splist", 0, "int")),
    "int_overflow_run_append": (Block((CallStmt("y.run_set", (Lit(1), Lit(1), Var("$n"))),
                                       CallStmt("y.append_add", (Lit(1), Var("$n"))))),
                                {"$n": 2**62}, _writer("rle", 0, "int")),
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
    "float_for_bound": (For("i", Lit(1), Lit(2.0), NOP), {}, None),
    "int_select_condition": (Let("x", Call("select", (Lit(1), Lit(1.0), Lit(2.0)))), {}, None),
    "non_boolean_or": (Let("x", Call("or", (Lit(False), Lit(3)))), {}, None),
    "int_while_condition": (While(Lit(1), NOP), {}, None),
    "unbound_writer_hook": (CallStmt("z.init"), {}, None),
    # writer errors, raised by the one writer implementation both backends call
    "append_prefix_out_of_bounds": (_hooks(("append_set", (3, 1, 1.0))), {},
                                    _writer("splist", rows=2)),
    "run_set_prefix_out_of_bounds": (_hooks(("run_set", (0, 1, 2, 1.0))), {},
                                     _writer("rle", rows=2)),
    "append_index_out_of_bounds": (_hooks(("append_set", (5, 1.0))), {}, _writer("splist")),
    "run_set_out_of_bounds": (_hooks(("run_set", (3, 5, 1.0))), {}, _writer("rle")),
    "run_set_reversed": (_hooks(("run_set", (4, 2, 1.0))), {}, _writer("rle")),
    "append_non_ascending_across_fibers": (
        _hooks(("append_set", (2, 1, 1.0)), ("append_set", (1, 3, 1.0))), {},
        _writer("splist", rows=2)),
    "append_non_ascending_within_fiber": (
        _hooks(("append_set", (1, 3, 1.0)), ("append_add", (1, 2, 1.0))), {},
        _writer("splist", rows=2)),
    "run_set_non_ascending_across_fibers": (
        _hooks(("run_set", (2, 1, 2, 1.0)), ("run_set", (1, 3, 4, 1.0))), {},
        _writer("rle", rows=2)),
    "run_set_non_ascending_within_fiber": (
        _hooks(("run_set", (1, 3, 1.0)), ("run_set", (3, 4, 1.0))), {}, _writer("rle")),
    "rle_append_non_ascending_within_fiber": (
        _hooks(("append_set", (3, 1.0)), ("append_set", (2, 1.0))), {}, _writer("rle")),
    "rle_set_at_last_index": (
        _hooks(("run_set", (1, 2, 1.0)), ("append_set", (2, 1.0))), {}, _writer("rle")),
    "missing_append_prefix": (CallStmt("y.append_set", (Var("$m"), Lit(1), Lit(1.0))),
                              {"$m": MISSING}, _writer("splist", rows=2)),
    "missing_rle_append": (CallStmt("y.append_add", (Lit(2), Var("$m"))), {"$m": MISSING},
                           _writer("rle")),
    "missing_run_set_prefix": (CallStmt("y.run_set", (Var("$m"), Lit(1), Lit(2), Lit(1.0))),
                               {"$m": MISSING}, _writer("rle", rows=2)),
    "missing_run_set_bound": (CallStmt("y.run_set", (Lit(1), Var("$m"), Lit(1.0))),
                              {"$m": MISSING}, _writer("rle")),
    "float_into_int_writer": (_hooks(("append_set", (1, 1.5))), {}, _writer("splist", 0, "int")),
    "int_overflow_append_set": (_hooks(("append_set", (1, 2**63))), {},
                                _writer("splist", 0, "int")),
    "int_overflow_append_onto_fill": (_hooks(("append_add", (1, 1))), {},
                                      _writer("splist", INT_MAX, "int")),
    "int_overflow_rle_append_onto_fill": (_hooks(("append_add", (2, 1))), {},
                                          _writer("rle", INT_MAX, "int")),
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


# Calls with many operands, each in its own kernel. and, or and coalesce get
# maybe-missing operands (A holds missing values), min and max proven floats.
WIDE = {
    "max": lambda n: "@V i C[i] = max(A[i], " + ", ".join(f"{k}.5" for k in range(n)) + ")",
    "min": lambda n: "@V i C[i] = min(A[i], " + ", ".join(f"{k}.5" for k in range(n)) + ")",
    "or": lambda n: ("@V i C[i] = coalesce(" + " || ".join(f"A[i] > {k}.5" for k in range(n))
                     + ", false)"),
    "and": lambda n: ("@V i C[i] = coalesce(" + " && ".join(f"A[i] < {k}.5" for k in range(n))
                      + ", false)"),
    "coalesce": lambda n: ("@V i C[i] = coalesce(A[i], " + ", ".join(f"$m{k}" for k in range(n))
                           + ", 0.5)"),
}


@pytest.mark.parametrize("operands", [100, 250])
@pytest.mark.parametrize("shape", sorted(WIDE))
def test_wide_call_runs_everywhere(shape, operands):
    """Operand count costs the generated code locals, not nesting."""
    text = WIDE[shape](operands)
    params = {f"m{k}": MISSING for k in range(operands)} if shape == "coalesce" else {}
    logic = shape in ("and", "or")
    outs = {"C": OutputSpec(dtype="bool", fill=False)} if logic else {}
    for n, backend in ((8, "interp"), (CODEGEN_MIN_ENTRIES, "python")):
        rng = random.Random(n)
        a = [rng.uniform(0.5, 1.5) for _ in range(n)]
        if shape in ("and", "or", "coalesce"):
            a = [MISSING if k % 5 == 0 else x for k, x in enumerate(a)]
        ins = {"A": InputSpec([n], a, format=["dense"], fill=0.0, dtype="float")}
        got = run_kernel(text, ins, outs, params)
        assert got.backend == backend
        assert got.dense["C"] == oracle_outputs(text, ins, outs, params)["C"]


def _walk_loop(source):
    """The lines of the generated code's outermost `while` loop."""
    lines = source.splitlines()
    start = next(k for k, line in enumerate(lines) if line.lstrip().startswith("while "))
    depth = len(lines[start]) - len(lines[start].lstrip())
    end = next((k for k in range(start + 1, len(lines))
                if len(lines[k]) - len(lines[k].lstrip()) <= depth), len(lines))
    return "\n".join(lines[start:end])


def test_walk_loop_reads_each_index_once():
    """The two-finger merge reads each cursor's index, with its bounds check,
    once per iteration, however many conditions use it."""
    rng = random.Random(5)
    n = 40
    a = [rng.random() if rng.random() < 0.3 else 0.0 for _ in range(n * n)]
    x = [rng.random() if rng.random() < 0.3 else 0.0 for _ in range(n)]
    ins = {"A": InputSpec([n, n], a, format=["dense", "splist"], protocols={2: "walk"}),
           "x": InputSpec([n], x, format=["splist"], protocols={1: "walk"})}
    compiled = compile_kernel(parse("@V i j y[i] += A[i,j] * x[j]"), ins)
    source = codegen._source(compiled.program, codegen._Facts(*runtime(compiled), {}))[0]
    loop = _walk_loop(source)
    for buf in ("A_idx", "x_idx"):
        data = re.search(rf"(\w+) = B\['{buf}'\]\.data", source).group(1)
        size = re.search(rf"(\w+) = len\(B\['{buf}'\]\.data\)", source).group(1)
        assert len(re.findall(rf"\b{data}\[", loop)) == 1, loop
        assert len(re.findall(rf"\b{size}\b", loop)) == 1, loop
    agree(compiled.program, lambda: runtime(compiled))


@pytest.mark.parametrize("name", sorted(PARITY))
def test_error_parity(name):
    prog, params, writer = PARITY[name]
    messages = []
    for run in BACKENDS:
        buffers = {"v": Buf("v", [1, 2]), "y": Buf("y", [0.0], "float")}
        writers = {"y": writer()} if writer else {}
        if writers:
            buffers = {"v": buffers["v"], **writers["y"].buffers}
        with pytest.raises(InterpError) as err:
            run(prog, buffers, params, writers)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]


# The message each writer error raises, pinned: every backend calls one writer
# implementation, which must keep raising them word for word.
WRITER_ERRORS = {
    "append_index_out_of_bounds": "write index 5 out of bounds for y",
    "append_non_ascending_across_fibers": "non-ascending write to append-only output y",
    "append_non_ascending_within_fiber": "non-ascending write to append-only output y",
    "append_prefix_out_of_bounds": "write index 3 out of bounds for y",
    "float_into_int_writer": "cannot store 1.5 in an int tensor",
    "int_overflow_append": f"integer overflow: {2**63}",
    "int_overflow_append_onto_fill": f"integer overflow: {2**63}",
    "int_overflow_append_set": f"integer overflow: {2**63}",
    "int_overflow_rle_append_onto_fill": f"integer overflow: {2**63}",
    "int_overflow_run_append": f"integer overflow: {2**63}",
    "missing_append": "missing value reached a write to y",
    "missing_append_prefix": "missing value reached a write to y",
    "missing_rle_append": "missing value reached a write to y",
    "missing_run_set": "missing value reached a write to y",
    "missing_run_set_prefix": "missing value reached a write to y",
    "missing_run_set_bound": "missing value reached a write to y",
    "rle_append_non_ascending_within_fiber": "non-ascending write to append-only output y",
    "rle_set_at_last_index": "non-ascending write to append-only output y",
    "run_set_non_ascending_across_fibers": "non-ascending write to append-only output y",
    "run_set_non_ascending_within_fiber": "non-ascending write to append-only output y",
    "run_set_out_of_bounds": "run write 3:5 out of bounds for y",
    "run_set_prefix_out_of_bounds": "write index 0 out of bounds for y",
    "run_set_reversed": "run write 4:2 out of bounds for y",
}


def test_writer_error_messages_are_pinned():
    assert sorted(WRITER_ERRORS) == sorted(n for n, case in PARITY.items() if case[2])
    for name, want in WRITER_ERRORS.items():
        prog, params, writer = PARITY[name]
        w = writer()
        with pytest.raises(InterpError, match=f"^{re.escape(want)}$"):
            run_program(prog, {"v": Buf("v", [1, 2]), **w.buffers}, params, {"y": w})


# An op with no value in its domain, over A = kind(0), kind(1), kind(2), ...
# of CODEGEN_MIN_ENTRIES entries, so that `execute` picks generated code
DOMAIN_ERRORS = {
    "pow(A[i], -1)": (float, "pow(0.0, -1): zero to a negative power"),
    "round(A[i] * 1e308 * 10.0)": (float, "round of non-finite value inf"),
    "round(A[i] * 1e308 * 10.0 - A[i] * 1e308 * 20.0)": (float, "round of non-finite value nan"),
    "pow(A[i] + 9.0, 400)": (float, "pow(9.0, 400): out of the float range"),
    "pow(A[i] - 1.0, 0.5)": (float, "pow(-1.0, 0.5): negative base to a fractional power"),
    "pow(A[i] + 2, 64)": (int, "integer overflow: 2 ** 64"),
    # the kernel's first sum overflows; its literals are not folded away
    "A[i] + 9223372036854775807 + 1 - 9223372036854775807":
        (int, "integer overflow: 9223372036854775808"),
    # the int unit is kept: a bool times 1 is an int, which `not` rejects
    "not(A[i] * 1)": (bool, "expected a boolean, got 0"),
}


@pytest.mark.parametrize("rhs", sorted(DOMAIN_ERRORS))
def test_domain_errors_agree_with_the_oracle(rhs):
    """The interpreter, cold and warm generated code, `execute` and the oracle
    raise one message."""
    kind, want = DOMAIN_ERRORS[rhs]
    text = f"@V i C[i] = {rhs}"
    n = CODEGEN_MIN_ENTRIES
    ins = {"A": InputSpec([n], [kind(k % 3) for k in range(n)], format=["dense"])}
    compiled = compile_kernel(parse(text), ins)
    exact = f"^{re.escape(want)}$"
    for run in BACKENDS:
        buffers, writers = runtime(compiled)
        with pytest.raises(InterpError, match=exact):
            run(compiled.program, buffers, {}, writers)
    with pytest.raises(InterpError, match=exact):
        execute(compiled)
    with pytest.raises(OracleError, match=exact):
        oracle_outputs(text, ins)


@pytest.mark.parametrize("text,params", [
    ("@V i C[i] = A[i] * 1e308 * 10.0 - A[i] * 1e308 * 10.0", {}),
    ("@V i C[i] = A[i] * $s - A[i] * $s", {"s": math.inf}),
])
def test_float_differences_are_not_cancelled(text, params):
    """x - x is nan, not 0, where x is inf: the interpreter, cold and warm
    generated code and the oracle agree on it."""
    ins = {"A": InputSpec([3], [0.0, 1.0, 2.0], format=["dense"])}
    compiled = compile_kernel(parse(text), ins, params=params)
    want = oracle_outputs(text, ins, params=params)["C"]
    assert [repr(v) for v in want] == ["0.0", "nan", "nan"]
    for run in BACKENDS:
        buffers, writers = runtime(compiled)
        run(compiled.program, buffers, {f"${k}": v for k, v in params.items()}, writers)
        assert all(same(x, y) for x, y in zip(buffers["C_val"].data, want)), run


def test_value_sums_keep_their_order():
    """Floats add left to right: A + 1 + 2 is not A + 3 at 2**53, in the
    interpreter, cold and warm generated code and the oracle alike."""
    text = "@V i C[i] = A[i] + 1 + 2"
    ins = {"A": InputSpec([3], [2.0 ** 53, 1.0, -(2.0 ** 53)], format=["dense"])}
    compiled = compile_kernel(parse(text), ins)
    want = oracle_outputs(text, ins)["C"]
    assert want == [2.0 ** 53 + 2, 4.0, -(2.0 ** 53) + 3]
    for run in BACKENDS:
        buffers, writers = runtime(compiled)
        run(compiled.program, buffers, {}, writers)
        assert buffers["C_val"].data == want, run


# Value calls keep their written operands, and equal invariants are equal
# literals: (kernel, A's data, outputs, params, each output as printed)
SIGNED = {
    # max(0, -0.0) is 0, the first of equal operands
    "relu": ("@V i C[i] = max(0, A[i])", [-0.0, -1.0, 2.0], {}, {},
             {"C": ["0.0", "0.0", "2.0"]}),
    # min(3, 3.0) is the int 3, which an int output stores
    "min into int": ("@V i C[i] = min(3, A[i])", [3.0] * 4,
                     {"C": OutputSpec(dtype="int", fill=0)}, {}, {"C": ["3"] * 4}),
    # $p + 0.0 and $p + -0.0 are two invariants
    "signed zeros": ("@V i @multi { C[i] = A[i] + ($p + 0.0); D[i] = A[i] + ($p + -0.0) }",
                     [-0.0] * 3, {}, {"p": -0.0}, {"C": ["0.0"] * 3, "D": ["-0.0"] * 3}),
}


@pytest.mark.parametrize("case,fmt", [("relu", "dense"), ("relu", "splist"),
                                      ("min into int", "dense"), ("min into int", "splist"),
                                      ("signed zeros", "dense")])
def test_values_keep_their_type_and_sign(case, fmt):
    """The interpreter and cold and warm generated code write the oracle's
    outputs, equal as printed: in value, type and sign of zero. A splist
    A has fill 1.0, so that it stores -0.0."""
    text, data, outs, params, printed = SIGNED[case]
    ins = {"A": InputSpec([len(data)], data, format=[fmt], fill=1.0 if fmt == "splist" else 0.0)}
    want = oracle_outputs(text, ins, outs, params)
    assert {name: [value_repr(v) for v in want[name]] for name in printed} == printed
    compiled = compile_kernel(parse(text), ins, outs, params)
    for run in BACKENDS:
        buffers, writers = runtime(compiled)
        run(compiled.program, buffers, {f"${k}": v for k, v in params.items()}, writers)
        got = {name: [value_repr(v) for v in to_dense(w.freeze())] for name, w in writers.items()}
        assert got == printed, run


# A float unit or an int zero meets an operand of the other type: the call
# gives the value its type, so the unit is not dropped and the zero not folded
UNIT_TYPES = {
    "pow(A[i] + 0.0, 64)": ([2, 3, 4], [2.0 ** 64, 3.0 ** 64, 4.0 ** 64]),
    "pow(A[i] * 1.0, 64)": ([2, 3, 4], [2.0 ** 64, 3.0 ** 64, 4.0 ** 64]),
    "A[i] * 0 + 9223372036854775807 + 1": ([0.0, 1.0, 2.0], [2.0 ** 63] * 3),
}


@pytest.mark.parametrize("fmt", ["dense", "splist"])
@pytest.mark.parametrize("rhs", sorted(UNIT_TYPES))
def test_identity_rules_keep_the_value_type(rhs, fmt):
    """The interpreter, cold and warm generated code, `execute` and the
    oracle compute the kernel's float, not an int overflow."""
    data, want = UNIT_TYPES[rhs]
    text = f"@V i C[i] = {rhs}"
    ins = {"A": InputSpec([3], data, format=[fmt])}
    compiled = compile_kernel(parse(text), ins)
    assert oracle_outputs(text, ins)["C"] == want
    assert execute(compiled).dense["C"] == want
    for run in BACKENDS:
        buffers, writers = runtime(compiled)
        run(compiled.program, buffers, {}, writers)
        assert buffers["C_val"].data == want, run


@pytest.mark.parametrize("backend", ["interp", "python"])
def test_writing_an_input_buffer_raises_and_changes_nothing(backend):
    """Input buffers hold their levels' arrays, not copies. A program that
    writes one raises the one read-only error, after evaluating its operands
    as the interpreter does, and leaves the tensor and its facts as they
    were."""
    runs = BACKENDS[:1] if backend == "interp" else BACKENDS[1:]
    compiled = compile_kernel(parse("@V i y[i] += A[i]"),
                              {"A": InputSpec([4], [1.5, 0.0, 2.5, 0.0], format=["splist"])})
    levels = compiled.tensors["A"].tensor.levels()

    def state():
        return [({f: list(getattr(lvl, f)) for f in lvl.buffers},
                 {f: lvl.facts(f) for f in lvl.buffers}) for lvl in levels]

    before = state()
    read_only = "write to read-only input buffer {!r}".format
    writes = [(BufferWrite("A_val", (Lit(1),), "set", Lit(5.0)), read_only("A_val")),
              (BufferWrite("A_idx", (Lit(2),), "add", Lit(1)), read_only("A_idx")),
              (For("i", Lit(1), Lit(2), BufferWrite("A_pos", (Var("i"),), "set", Var("i"))),
               read_only("A_pos")),
              (Block((Let("x", Read("A_idx", (Lit(1),))), BufferWrite(
                  "A_val", (Var("x"),), "set", Call("sqrt", (Lit(-1.0),))))),
               "sqrt of negative value -1.0")]
    for prog, want in writes:
        for run in runs:
            buffers, writers = runtime(compiled)
            assert buffers["A_val"].data is levels[1].val
            with pytest.raises(InterpError) as err:
                run(prog, buffers, {}, writers)
            assert str(err.value) == want
    assert state() == before
    assert execute(compiled).dense["y"] == [1.5, 0.0, 2.5, 0.0]


def test_unbound_name_off_the_taken_path_is_not_an_error():
    prog, _, _ = PARITY["unbound_at_run_time"]
    agree(prog, plain(), {"$n": 0})


@pytest.mark.parametrize("proto", ["walk", "gallop", "follow"])
def test_rle_copy_of_adjacent_entries(proto):
    """A splist copied into an rle output: a walk writes the empty fill run
    between adjacent stored entries, which is a no-op that counts no write,
    on every backend, and the outputs equal the oracle's."""
    rng = random.Random(3)
    for data in ([0.0, 1.0, 2.0, 0.0, 0.0],
                 [rng.random() if rng.random() < 0.3 else 0.0 for _ in range(40)]):
        ins = {"A": InputSpec([len(data)], data, format=["splist"], protocols={1: proto})}
        outs = {"C": OutputSpec(dims=[len(data)], format=["rle"])}
        compiled = compile_kernel(parse("@V i C[i] = A[i]"), ins, outs)
        _, counters = agree(compiled.program, lambda: runtime(compiled))
        assert execute(compiled).dense["C"] == oracle_outputs("@V i C[i] = A[i]", ins, outs)["C"]
        if proto != "follow":  # a fill run and an entry per stored entry, then the tail
            assert counters["buffer_writes"] <= 2 * sum(x != 0.0 for x in data) + 1
