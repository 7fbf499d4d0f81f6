"""Generated code is reused soundly and lives as long as its program.

A program's code is kept in its program-cache entry (`api.Lowered`), guarded
by the table of every runtime fact generation reads: each buffer's dtype,
length, value types and int bounds, the buffers append writers grow, each
writer's class and buffer names, and each parameter's facts. The entry serves
the code only to a state with an equal table, replaces it when the facts
change, and drops it when the program cache replaces or evicts the program.
Every run's buffers and counters are checked against the interpreter.
"""

import gc
import random
import weakref

import pytest

import coil.api as api
from coil import codegen
from coil.api import InputSpec, Lowered, ProgramCache, compile_kernel, execute, runtime
from coil.expr import Call, Lit, Read, Var
from coil.interp import Buf, run_program
from coil.parser import parse
from coil.target import Block, BufferWrite, CallStmt, For
from coil.unfurl import WriterPlan
from coil.writers import SparseListWriter

from test_codegen import assert_same_run

pytestmark = pytest.mark.usefixtures("programs")


def gather(n=3):
    """y[i] = v[idx[i]] * $s + $k for i in 1..n: the gather's index is proven
    in bounds only by idx's int bounds and v's length."""
    value = Call("add", (Call("mul", (Read("v", (Read("idx", (Var("i"),)),)), Var("$s"))),
                         Var("$k")))
    return For("i", Lit(1), Lit(n), BufferWrite("y", (Var("i"),), "set", value))


def state(idx=(1, 3, 2), v=(0.5, 1.5, 2.5), y_dtype="float", extra=None):
    buffers = {"idx": Buf("idx", list(idx), "int"), "v": Buf("v", list(v), "float"),
               "y": Buf("y", [0.0] * 3, y_dtype)}
    if extra:
        buffers[extra] = Buf(extra, [1])
    return buffers


def reuse(entry, make_buffers, params=None, make_writers=dict):
    """Run `entry`'s program as generated code on a fresh state and return
    "fresh" or "cached"; the run must leave what the interpreter leaves."""
    params = params if params is not None else {"$s": 2.0, "$k": 1}
    runs, how = [], None
    for generated in (False, True):
        buffers, writers = make_buffers(), make_writers()
        buffers.update({k: b for w in writers.values() for k, b in w.buffers.items()})
        if generated:
            code, how = codegen.generated(entry, buffers, params, writers)
            counters = code(buffers, params, writers)
        else:
            counters = run_program(entry.program, buffers, params=params,
                                   writers=writers).counters
        runs.append(({k: b.data for k, b in buffers.items()}, counters.as_dict()))
    assert_same_run(*runs)
    return how


# -- hits ------------------------------------------------------------------------------


def test_same_facts_hit():
    entry = Lowered(gather())
    assert reuse(entry, state) == "fresh"
    code = entry.code
    # other values, same types, int bounds and lengths; float params by type
    assert reuse(entry, lambda: state(idx=(3, 1, 1), v=(9.0, -1.0, 0.0))) == "cached"
    assert reuse(entry, state, {"$s": -4.5, "$k": 1}) == "cached"
    assert entry.code is code


def test_hit_runs_the_same_compiled_code():
    entry = Lowered(gather())
    first, _ = codegen.generated(entry, state(), {"$s": 2.0, "$k": 1})
    again, how = codegen.generated(entry, state(), {"$s": 3.0, "$k": 1})
    assert how == "cached" and again is first


def test_recorded_facts_guard_like_scanned_ones():
    """A buffer that carries recorded facts gets the code a scan would get;
    other facts miss, whatever the data holds."""
    entry = Lowered(gather())
    assert reuse(entry, state) == "fresh"
    facts = lambda ts, iv: lambda: {**state(), "idx": Buf("idx", [1, 3, 2], "int",
                                                           lambda: (ts, iv))}
    assert reuse(entry, facts(frozenset({int}), (1, 3))) == "cached"
    assert reuse(entry, facts(frozenset({int}), (1, 4))) == "fresh"


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
    entry = Lowered(gather())
    assert reuse(entry, state) == "fresh"
    first = entry.code
    assert reuse(entry, changed, params) == "fresh"
    assert entry.code is not first  # the program's code was replaced
    assert reuse(entry, changed, params) == "cached"


def test_changed_writer_class_misses():
    class Renamed(SparseListWriter):
        pass

    plan = WriterPlan("y", [4], 0.0, "float", ["splist"])
    entry = Lowered(Block((CallStmt("y.init"), CallStmt("y.append_set", (Lit(2), Lit(1.5))),
                           CallStmt("y.finalize"))))
    v = lambda: {"v": Buf("v", [1.0])}
    hows = [reuse(entry, v, {}, lambda cls=cls: {"y": cls(plan)})
            for cls in (SparseListWriter, SparseListWriter, Renamed, Renamed, SparseListWriter)]
    assert hows == ["fresh", "cached", "fresh", "cached", "fresh"]


def test_key_compares_by_type():
    code = codegen._Code((1, "int", 3), None, [])
    assert code.fits((1, "int", 3))
    assert not code.fits((True, "int", 3))
    assert not code.fits((1.0, "int", 3))
    assert not code.fits((1, "int"))


def test_direct_runs_keep_no_code():
    """`codegen.run_program` generates for the one run: nothing is kept."""
    prog = gather()
    codegen.run_program(prog, state(), {"$s": 2.0, "$k": 1})
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, codegen._Code)]


# -- through the program cache ------------------------------------------------------------


SPMSPV = "@V i j y[i] += A[i,j] * x[j]"


def spmspv(scale=1.0, shift=0, x_last=1.0, n=40, text=SPMSPV):
    a = [float((i * n + j + shift) % 3 == 0) * scale for i in range(n) for j in range(n)]
    x = [float(j % 4 == 0) for j in range(n - 1)] + [x_last]
    return compile_kernel(parse(text), {
        "A": InputSpec([n, n], a, format=["dense", "splist"]),
        "x": InputSpec([n], x, format=["splist"])})


def test_new_inputs_of_one_compiled_kernel():
    """A kernel compiled once (the program cache) and run on new inputs
    reuses its code while the inputs' facts stay, through `execute`."""
    # new values; A's rows stored elsewhere (A's inner fibers are read at run
    # time, so the program stays); x's last entry gone (a new program)
    runs = [spmspv(1.0, 0), spmspv(2.5, 0), spmspv(1.0, 1), spmspv(1.0, 0, x_last=0.0)]
    assert [c.lowering for c in runs] == ["fresh", "cached", "cached", "fresh"]
    results = [execute(c) for c in runs]
    assert [r.codegen for r in results] == ["fresh", "cached", "fresh", "fresh"]
    for c, r in zip(runs, results):
        buffers, writers = runtime(c)
        want = run_program(c.program, buffers, writers=writers).counters
        assert r.counters.as_dict() == want.as_dict()


def test_equal_programs_get_their_own_code():
    """Programs that differ only in the type of a literal are different
    programs; each program's entry keeps its own code."""
    ints, floats = (spmspv(text=f"@V i j y[i] += A[i,j] * x[j] * {k}") for k in ("2", "2.0"))
    assert ints.program != floats.program and ints.lowered is not floats.lowered
    assert [execute(c).codegen for c in (ints, floats, ints)] == ["fresh", "fresh", "cached"]
    assert ints.lowered.code is not floats.lowered.code


def _live(entry):
    """A weak reference to the function of the code kept in `entry`."""
    assert entry.code is not None
    return weakref.ref(entry.code.run)


def test_replacing_a_program_drops_its_code():
    """A new program for a signature (x's root changed) replaces the old
    one in the program cache, and the old code goes with it."""
    old = spmspv()
    execute(old)
    ref = _live(old.lowered)
    new = spmspv(x_last=0.0)
    assert new.lowering == "fresh"
    execute(new)
    del old
    gc.collect()
    assert ref() is None
    assert len(api.PROGRAMS) == 1


def test_evicting_a_program_drops_its_code(monkeypatch):
    monkeypatch.setattr(api, "PROGRAMS", ProgramCache(1))
    first = spmspv()
    execute(first)
    ref = _live(first.lowered)
    del first
    execute(spmspv(n=41))  # another signature evicts the first
    gc.collect()
    assert ref() is None


def test_sparse_root_misses_keep_one_code():
    """Compiling and running a sparse-root dot on new structure each time
    replaces its program every time; at most one code object stays alive."""
    rng = random.Random(7)
    n = 1100
    for trial in range(300):
        # the nnz alternates, so each trial's root facts differ from the last's
        a = [rng.random() if k < n // 2 + trial % 2 else 0.0 for k in range(n)]
        compiled = compile_kernel(parse("@V i C[] += A[i] * B[i]"), {
            "A": InputSpec([n], a, format=["splist"]), "B": InputSpec([n], a, format=["splist"])})
        assert compiled.lowering == "fresh"
        assert execute(compiled).codegen == "fresh"
    gc.collect()
    assert sum(isinstance(o, codegen._Code) for o in gc.get_objects()) <= 1
    assert len(api.PROGRAMS) == 1
