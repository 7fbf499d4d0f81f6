"""The code cache of `codegen` is sound: it serves a program's generated code
only to a runtime state with the facts the code was generated under.

Code is keyed by the program's identity and guarded by the table of every
runtime fact generation reads: each buffer's dtype, length, value types and
int bounds, the buffers append writers grow, each writer's class and buffer
names, and each parameter's facts. Every test starts from an empty cache;
every run's buffers and counters are checked against the interpreter.
"""

import gc

import pytest

from coil import codegen
from coil.api import PROGRAM_CACHE_ENTRIES, InputSpec, compile_kernel, execute, runtime
from coil.expr import Call, Lit, Read, Var
from coil.interp import Buf, run_program
from coil.parser import parse
from coil.target import Block, BufferWrite, CallStmt, For
from coil.unfurl import WriterPlan
from coil.writers import SparseListWriter

from test_codegen import assert_same_run


@pytest.fixture(autouse=True)
def empty_cache():
    codegen.CODE.clear()
    yield
    codegen.CODE.clear()


def gather(n=3):
    """y[i] = v[idx[i]] * $s + $k for i in 1..n: the gather's index is proven
    in bounds only by idx's int bounds and v's length."""
    value = Call("add", (Call("mul", (Read("v", (Read("idx", (Var("i"),)),)), Var("$s"))),
                         Var("$k")))
    return For("i", Lit(1), Lit(n), BufferWrite("y", (Var("i"),), "set", value))


GATHER = gather()


def state(idx=(1, 3, 2), v=(0.5, 1.5, 2.5), y_dtype="float", extra=None):
    buffers = {"idx": Buf("idx", list(idx), "int"), "v": Buf("v", list(v), "float"),
               "y": Buf("y", [0.0] * 3, y_dtype)}
    if extra:
        buffers[extra] = Buf(extra, [1])
    return buffers


def reuse(prog, make_buffers, params=None, make_writers=dict):
    """Run `prog` as generated code on a fresh state and return "fresh" or
    "cached"; the run must leave what the interpreter leaves."""
    params = params if params is not None else {"$s": 2.0, "$k": 1}
    runs, how = [], None
    for generated in (False, True):
        buffers, writers = make_buffers(), make_writers()
        buffers.update({k: b for w in writers.values() for k, b in w.buffers.items()})
        if generated:
            code, how = codegen.generated(prog, buffers, params, writers)
            counters = code(buffers, params, writers)
        else:
            counters = run_program(prog, buffers, params=params, writers=writers).counters
        runs.append(({k: b.data for k, b in buffers.items()}, counters.as_dict()))
    assert_same_run(*runs)
    return how


# -- hits ------------------------------------------------------------------------------


def test_same_facts_hit():
    assert reuse(GATHER, state) == "fresh"
    # other values, same types, int bounds and lengths; float params by type
    assert reuse(GATHER, lambda: state(idx=(3, 1, 1), v=(9.0, -1.0, 0.0))) == "cached"
    assert reuse(GATHER, state, {"$s": -4.5, "$k": 1}) == "cached"
    assert len(codegen.CODE) == 1


def test_hit_runs_the_same_compiled_code():
    buffers = state()
    first, _ = codegen.generated(GATHER, buffers, {"$s": 2.0, "$k": 1})
    again, how = codegen.generated(GATHER, state(), {"$s": 3.0, "$k": 1})
    assert how == "cached" and again is first


# -- misses ----------------------------------------------------------------------------


@pytest.mark.parametrize("changed, params", [
    (lambda: state(idx=(1, 2, 2)), None),                      # int upper bound 3 -> 2
    (lambda: state(idx=(2, 3, 2)), None),                      # int lower bound 1 -> 2
    (lambda: state(v=(0.5, 1.5, 2.5, 3.5)), None),             # length 3 -> 4
    (lambda: state(y_dtype=None), None),                       # dtype float -> none
    (lambda: state(extra="w"), None),                          # one more buffer
    (lambda: state(v=(0.5, 1.5, 2)), None),                    # an int among floats
    (state, {"$s": 2.0, "$k": 2}),                             # int param value
    (state, {"$s": 2.0, "$k": 1.0}),                           # int param -> float
    (state, {"$s": 2.0, "$k": True}),                          # int param -> bool
    (state, {"$s": 2.0, "$k": 1, "$z": 0}),                    # one more param
])
def test_changed_facts_miss(changed, params):
    assert reuse(GATHER, state) == "fresh"
    assert reuse(GATHER, changed, params) == "fresh"
    assert len(codegen.CODE) == 1  # the program's code was replaced
    assert reuse(GATHER, changed, params) == "cached"


def test_changed_writer_class_misses():
    class Renamed(SparseListWriter):
        pass

    plan = WriterPlan("y", [4], 0.0, "float", ["splist"])
    prog = Block((CallStmt("y.init"), CallStmt("y.append_set", (Lit(2), Lit(1.5))),
                  CallStmt("y.finalize")))
    v = lambda: {"v": Buf("v", [1.0])}
    hows = [reuse(prog, v, {}, lambda cls=cls: {"y": cls(plan)})
            for cls in (SparseListWriter, SparseListWriter, Renamed, Renamed, SparseListWriter)]
    assert hows == ["fresh", "cached", "fresh", "cached", "fresh"]


def test_equal_programs_get_their_own_code():
    """Equal IR may hold literals of different types: identity keys the code."""
    ints = BufferWrite("y", (Lit(1),), "set", Call("mul", (Read("v", (Lit(1),)), Lit(2))))
    floats = BufferWrite("y", (Lit(1),), "set", Call("mul", (Read("v", (Lit(1),)), Lit(2.0))))
    assert ints == floats
    assert [reuse(p, state, {}) for p in (ints, floats, ints)] == ["fresh", "fresh", "cached"]


def test_new_inputs_of_one_compiled_kernel():
    """A kernel compiled once (the program cache) and run on new inputs
    reuses its code while the inputs' facts stay, through `execute`."""
    n = 40
    text = "@V i j y[i] += A[i,j] * x[j]"

    def compiled(scale, shift, x_last=1.0):
        a = [float((i * n + j + shift) % 3 == 0) * scale for i in range(n) for j in range(n)]
        x = [float(j % 4 == 0) for j in range(n - 1)] + [x_last]
        return compile_kernel(parse(text), {
            "A": InputSpec([n, n], a, format=["dense", "splist"]),
            "x": InputSpec([n], x, format=["splist"])})

    # new values; A's rows stored elsewhere (A's inner fibers are read at run
    # time, so the program stays); x's last entry gone (a new program)
    runs = [compiled(1.0, 0), compiled(2.5, 0), compiled(1.0, 1), compiled(1.0, 0, x_last=0.0)]
    assert [c.lowering for c in runs] == ["fresh", "cached", "cached", "fresh"]
    results = [execute(c) for c in runs]
    assert [r.codegen for r in results] == ["fresh", "cached", "fresh", "fresh"]
    for c, r in zip(runs, results):
        buffers, writers = runtime(c)
        want = run_program(c.program, buffers, writers=writers).counters
        assert r.counters.as_dict() == want.as_dict()


# -- bounds ----------------------------------------------------------------------------


def test_capacity_bounds_the_cache():
    assert codegen.CODE.capacity == PROGRAM_CACHE_ENTRIES
    cache = codegen.CodeCache(2)
    progs = [gather(n) for n in (1, 2, 3)]
    codes = {}
    for p in progs:
        codes[id(p)] = codegen._Code(p, ("key",), None, [])
        cache.put(codes[id(p)])
    assert len(cache) == 2 and cache.get(progs[0], ("key",)) is None
    assert cache.get(progs[1], ("key",)) is codes[id(progs[1])]
    cache.put(codegen._Code(progs[0], ("key",), None, []))  # evicts progs[2], not progs[1]
    assert cache.get(progs[2], ("key",)) is None
    assert cache.get(progs[1], ("key",)) is not None


def test_key_compares_by_type():
    cache = codegen.CodeCache(1)
    code = codegen._Code(GATHER, (1, "int", 3), None, [])
    cache.put(code)
    assert cache.get(GATHER, (1, "int", 3)) is code
    assert cache.get(GATHER, (True, "int", 3)) is None
    assert cache.get(GATHER, (1.0, "int", 3)) is None
    assert cache.get(GATHER, (1, "int")) is None


def test_the_entry_holds_its_program():
    """A program's id is not taken by another while its entry lives."""
    assert reuse(gather(2), state) == "fresh"
    gc.collect()
    (key, code), = codegen.CODE.entries.items()
    assert key == id(code.prog) and code.prog == gather(2)
