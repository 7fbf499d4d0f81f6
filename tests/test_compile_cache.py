"""The program cache of `compile_kernel` is sound: it serves a cached program
only to a binding that the program was lowered for.

A program is keyed by the printed kernel, each binding's signature and the
ruleset, and guarded by the root facts unfurling folded into it. Every test
starts from an empty cache; outputs are checked against the dense oracle.
"""

import gc
import weakref

import pytest

import coil.api as api
import coil.rewrite as rw
from coil.api import InputSpec, Lowered, ProgramCache, compile_kernel, execute, oracle_outputs
from coil.parser import parse
from coil.rewrite import Ruleset
from coil.unfurl import CompileError

DOT = "@V i C[] += A[i] * B[i]"
ONES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


pytestmark = pytest.mark.usefixtures("programs")


def dot_inputs(a, fmt="splist", b=None, bfmt="dense", fill=0.0):
    b = ONES[:len(a)] if b is None else b
    return {"A": InputSpec([len(a)], a, format=[fmt], fill=fill),
            "B": InputSpec([len(b)], b, format=[bfmt])}


def compile_checked(kernel, inputs, **kw):
    """Compile and run; the outputs must equal the oracle's."""
    compiled = compile_kernel(parse(kernel), inputs, **kw)
    assert execute(compiled).dense == oracle_outputs(kernel, inputs)
    return compiled


def cold_ir(kernel, inputs):
    api.PROGRAMS.clear()
    return compile_kernel(parse(kernel), inputs).ir_text()


def assert_own_programs(cases):
    """Each (kernel, inputs) case, compiled after the others, is lowered
    afresh and prints as its cold compile does."""
    cold = [cold_ir(kernel, inputs()) for kernel, inputs in cases]
    api.PROGRAMS.clear()
    for (kernel, inputs), text in zip(cases, cold):
        compiled = compile_checked(kernel, inputs())
        assert compiled.lowering == "fresh", kernel
        assert compiled.ir_text() == text
    assert len(api.PROGRAMS) == len(cases)


# -- typed keys ------------------------------------------------------------------


def test_equal_stmts_of_typed_literals_get_their_own_programs():
    assert parse("@V i C[] += A[i] * 2") == parse("@V i C[] += A[i] * 2.0")
    ins = lambda: dot_inputs([0.0, 1.0, 0.0, 2.0])
    assert_own_programs([(f"@V i C[] += A[i] {lit}", ins)
                         for lit in ("* 2", "* 2.0", "+ true", "+ 1", "* 0.0", "* -0.0")])


def test_fills_of_equal_value_get_their_own_programs():
    cases = [(DOT, lambda f=f: dot_inputs([f, 1.0, f, 2.0], fill=f)) for f in (0, 0.0, -0.0, False)]
    assert_own_programs(cases)


# -- guards ------------------------------------------------------------------------


def test_same_structure_hits_and_changed_root_facts_miss():
    base = compile_checked(DOT, dot_inputs([0.0, 1.0, 0.0, 2.0, 0.0, 0.0]))
    assert base.lowering == "fresh"
    same = compile_checked(DOT, dot_inputs([0.0, 7.0, 0.0, 9.0, 0.0, 0.0]))
    assert same.lowering == "cached" and same.program is base.program
    more = compile_checked(DOT, dot_inputs([0.0, 1.0, 0.0, 2.0, 3.0, 0.0]))  # nnz 2 -> 3
    assert more.lowering == "fresh"
    empty = compile_checked(DOT, dot_inputs([0.0] * 6))
    assert empty.lowering == "fresh" and empty.ir_text() != base.ir_text()
    # the signature keeps the program it was last lowered to
    again = compile_checked(DOT, dot_inputs([0.0] * 6))
    assert again.lowering == "cached" and again.program is empty.program
    back = compile_checked(DOT, dot_inputs([0.0, 5.0, 0.0, 6.0, 0.0, 0.0]))
    assert back.lowering == "fresh" and back.ir_text() == base.ir_text()


def test_same_nnz_at_other_indices_misses():
    base = compile_checked(DOT, dot_inputs([0.0, 1.0, 0.0, 2.0, 0.0, 0.0]))
    moved = compile_checked(DOT, dot_inputs([0.0, 1.0, 0.0, 0.0, 2.0, 0.0]))  # last idx 4 -> 5
    assert (base.lowering, moved.lowering) == ("fresh", "fresh")


def test_changed_band_bounds_miss():
    band = lambda b: dot_inputs(ONES, fmt="dense", b=b, bfmt="sband")
    base = compile_checked(DOT, band([0.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    same = compile_checked(DOT, band([0.0, 3.0, 4.0, 0.0, 0.0, 0.0]))
    moved = compile_checked(DOT, band([0.0, 0.0, 1.0, 1.0, 1.0, 0.0]))
    emptied = compile_checked(DOT, band([0.0] * 6))
    assert [c.lowering for c in (base, same, moved, emptied)] == [
        "fresh", "cached", "fresh", "fresh"]


def test_facts_compare_by_type():
    class Reads:  # a binding whose every fact reads `value`
        def __init__(self, value):
            self.value = value

        def fact(self, depth, field, at):
            return self.value

    cache = ProgramCache(4)
    entry = Lowered("program", ("A", 1, "pos", 1, 1))
    cache.put(("kernel", ()), entry)
    assert cache.get(("kernel", ()), {"A": Reads(1)}) is entry
    assert cache.get(("kernel", ()), {"A": Reads(True)}) is None
    assert cache.get(("kernel", ()), {"A": Reads(1.0)}) is None
    assert cache.get(("kernel", ()), {"A": Reads(2)}) is None


def test_only_root_facts_are_guards():
    """A dense.splist matrix's inner fibers are read at run time, so their
    structure is no guard; the splist vector's root fiber is."""
    kernel = "@V i j y[i] += A[i, j] * x[j]"
    mat = lambda rows, x=(1.0, 0.0, 2.0): {
        "A": InputSpec([2, 3], rows, format=["dense", "splist"]),
        "x": InputSpec([3], list(x), format=["splist"])}
    base = compile_checked(kernel, mat([1.0, 0.0, 0.0, 0.0, 2.0, 3.0]))
    inner = compile_checked(kernel, mat([0.0, 0.0, 0.0, 4.0, 5.0, 6.0]))
    root = compile_checked(kernel, mat([1.0, 0.0, 0.0, 0.0, 2.0, 3.0], x=(0.0, 0.0, 2.0)))
    assert [c.lowering for c in (base, inner, root)] == ["fresh", "cached", "fresh"]


# -- rules ---------------------------------------------------------------------------


def test_custom_ruleset_misses():
    ins = lambda: dot_inputs([0.0] * 6)
    assert compile_checked(DOT, ins()).lowering == "fresh"
    custom = compile_checked(DOT, ins(), ruleset=Ruleset().add("noop", lambda n: None))
    assert custom.lowering == "fresh"
    assert compile_checked(DOT, ins(), ruleset=Ruleset()).lowering == "cached"


def test_monkeypatched_default_rules_miss(monkeypatch):
    ins = lambda: dot_inputs([0.0] * 6)
    annihilated = compile_checked(DOT, ins())
    monkeypatch.setattr(rw, "DEFAULT_RULES",
                        [r for r in rw.DEFAULT_RULES if r[0] != "mul_annihilate"])
    patched = compile_checked(DOT, ins())
    assert patched.lowering == "fresh" and patched.ir_text() != annihilated.ir_text()


# -- failures, stages, the lower layer -------------------------------------------------


def test_compile_error_raises_on_every_call():
    ins = {"A": InputSpec([4], [1.0, 1.0, 2.0, 2.0], format=["rle"], protocols={1: "gallop"})}
    for _ in range(3):
        with pytest.raises(CompileError, match="gallop"):
            compile_kernel(parse("@V i C[] += A[i]"), ins)
    assert len(api.PROGRAMS) == 0


def test_stages_bypass_the_cache():
    for _ in range(2):
        compiled = compile_kernel(parse(DOT), dot_inputs([0.0, 1.0, 0.0, 2.0]), stages=True)
        assert compiled.lowering == "fresh" and compiled.stages
    assert len(api.PROGRAMS) == 0


def test_a_miss_lowers_through_the_api_binding(monkeypatch):
    calls = []

    def counted(ctx, stmt):
        calls.append(stmt)
        return lower(ctx, stmt)

    lower = api.lower_program
    monkeypatch.setattr(api, "lower_program", counted)
    compile_checked(DOT, dot_inputs([0.0, 1.0, 0.0, 2.0]))
    compile_checked(DOT, dot_inputs([0.0, 3.0, 0.0, 4.0]))
    assert len(calls) == 1


# -- bounds ------------------------------------------------------------------------------


def test_capacity_bounds_the_cache(monkeypatch):
    assert api.PROGRAM_CACHE_ENTRIES >= 164  # one corpus sweep pass
    monkeypatch.setattr(api, "PROGRAMS", ProgramCache(3))
    for n in range(2, 9):  # a signature each
        compile_checked(DOT, dot_inputs([0.0, 1.0] * (n // 2) + [2.0] * (n % 2), b=[1.0] * n))
        assert len(api.PROGRAMS) <= 3
    assert len(api.PROGRAMS) == 3
    assert compile_checked(DOT, dot_inputs([0.0, 1.0] * 3, b=[1.0] * 6)).lowering == "cached"
    assert compile_checked(DOT, dot_inputs([0.0, 1.0] * 2, b=[1.0] * 4)).lowering == "fresh"
    # the least recently used signature (n = 7) went; n = 6, just used, stayed
    assert compile_checked(DOT, dot_inputs([0.0, 1.0] * 3, b=[1.0] * 6)).lowering == "cached"
    assert compile_checked(DOT, dot_inputs([0.0, 1.0] * 3 + [2.0], b=[1.0] * 7)).lowering == "fresh"


def test_one_signature_keeps_its_latest_program():
    for k in range(6):  # one signature, other facts
        compile_checked(DOT, dot_inputs([0.0] * k + [1.0] + [0.0] * (5 - k)))
        assert len(api.PROGRAMS) == 1
    assert compile_checked(DOT, dot_inputs([0.0] * 5 + [2.0])).lowering == "cached"
    assert compile_checked(DOT, dot_inputs([2.0] + [0.0] * 5)).lowering == "fresh"


def test_cache_holds_no_payload():
    compiled = compile_checked(DOT, dot_inputs([0.0, 1.0, 0.0, 2.0]))
    again = compile_checked(DOT, dot_inputs([0.0, 3.0, 0.0, 4.0]))
    assert again.lowering == "cached"
    refs = [weakref.ref(c.tensors[name].tensor) for c in (compiled, again) for name in "AB"]
    del compiled, again
    gc.collect()
    assert [r() for r in refs] == [None] * 4
    assert len(api.PROGRAMS) == 1
    for entry in api.PROGRAMS.entries.values():
        runs = [iter(entry.facts)] * 5
        for name, depth, field, at, value in zip(*runs):
            assert type(name) is str and type(field) is str
            assert type(depth) is int and type(at) is int and type(value) in (int, bool)
