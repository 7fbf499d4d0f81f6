"""Loop-invariant motion (`coil.hoist`) is never speculative.

A value moves out of a loop only to a point that runs when the loop runs its
body, so a program with an invariant that would fail (an int overflow of a
`$param`, a read out of range) fails exactly when it failed before the
motion, on the interpreter and on generated code; and when the loop's range
is empty at run time the invariant is never evaluated, as before. Where an
iteration would raise two errors, the moved value's is now reported first.
"""

import random
import re

import pytest

from coil.api import InputSpec, OutputSpec, compile_kernel, oracle_outputs, runtime
from coil.interp import InterpError
from coil.oracle import OracleError
from coil.parser import parse

from test_acceptance import corpus_cases
from test_codegen import BACKENDS, agree, drop_kept, same  # noqa: F401 (autouse fixture)

CONV = "@V i j B[i] += coalesce(A[permit[offset($c - i)[j]]], 0.0) * coalesce(F[permit[j]], 0.0)"
OVERFLOW = CONV + " * ($p + 1)"
OUT_OF_RANGE = CONV + " * G[$k]"
INPUTS = {"A": InputSpec([4], [1.0, 2.0, 3.0, 4.0]), "F": InputSpec([3], [1.0, 2.0, 3.0]),
          "G": InputSpec([2], [5.0, 6.0])}
# $c = -50 empties every range of j; $c = 2 does not
EMPTY, FULL = -50, 2
CASES = {
    "overflow": (OVERFLOW, {"p": 2 ** 63 - 1}, "integer overflow: 9223372036854775808"),
    "out of range": (OUT_OF_RANGE, {"k": 9}, "out-of-bounds read G_val[9] (size 2)"),
}


def compiled(case, c):
    kernel, params, _ = CASES[case]
    params = dict(params, c=c)
    inputs = {n: s for n, s in INPUTS.items() if n != "G" or "G[" in kernel}
    prog = compile_kernel(parse(kernel), inputs, {"B": OutputSpec(dims=[4])}, params)
    return prog, {f"${k}": v for k, v in params.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_failing_invariant_moves_into_the_range_guard(case):
    prog, _ = compiled(case, EMPTY)
    text = prog.ir_text()
    moved = "$p + 1" if case == "overflow" else "G_val[$k]"
    assert re.search(r"if lo\d* <= hi\d*\n(    let .*\n)*    let inv\d* = " + re.escape(moved),
                     text), text
    loop = text[text.index("for j"):]
    assert moved not in loop


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_empty_range_never_evaluates_the_invariant(case):
    prog, params = compiled(case, EMPTY)
    data, counters = agree(prog.program, lambda: runtime(prog), params)
    assert data["B frozen"] == [0.0] * 4
    # the counts before the motion: every guard fails, nothing is read
    assert counters == {"loop_iterations": 4, "buffer_reads": 0, "buffer_writes": 0,
                        "multiplies": 0, "adds": 16, "searches": 0, "compares": 12,
                        "reads_by_buffer": {}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_nonempty_range_raises_the_error_it_raised_before(case):
    prog, params = compiled(case, FULL)
    assert raised(prog, params) == [CASES[case][2]] * len(BACKENDS)


def raised(compiled, params):
    """The message each backend raises running `compiled` on `params`, whose
    names start with `$`."""
    messages = []
    for run in BACKENDS:
        buffers, writers = runtime(compiled)
        with pytest.raises(InterpError) as err:
            run(compiled.program, buffers, params, writers)
        messages.append(str(err.value))
    return messages


# two invariants equal as expressions but for a literal's type: `$p + 1` is
# an int and `$p + 1.0` a float, and 4 * ($p + 1) overflows at $p = 2**62
LITERAL_TYPES = {
    "float": ("@V i C[i] += A[i] * ($p + 1) + B[i] * ($p + 1.0)", None),
    "int": ("@V i C[i] += A[i] * ($p + 1.0) + B[i] * ($p + 1)",
            "integer overflow: 18446744073709551620"),
}


@pytest.mark.parametrize("case", sorted(LITERAL_TYPES))
def test_invariants_that_differ_in_a_literal_type_move_apart(case):
    text, error = LITERAL_TYPES[case]
    ins = {"A": InputSpec([3], [0, 0, 0]), "B": InputSpec([3], [4, 4, 4])}
    outs, params = {"C": OutputSpec(dims=[3])}, {"p": 2 ** 62}
    compiled = compile_kernel(parse(text), ins, outs, params)
    assert compiled.ir_text().count("let inv") == 2, compiled.ir_text()
    if error is not None:
        assert raised(compiled, {"$p": 2 ** 62}) == [error] * len(BACKENDS)
        with pytest.raises(OracleError, match=f"^{re.escape(error)}$"):
            oracle_outputs(text, ins, outs, params)
        return
    data, _ = agree(compiled.program, lambda: runtime(compiled), {"$p": 2 ** 62})
    want = oracle_outputs(text, ins, outs, params)["C"]
    assert type(want[0]) is float
    assert all(same(x, y) for x, y in zip(data["C_val"], want)), data["C_val"]


def test_a_moved_invariant_reports_its_error_first():
    """An iteration that would raise two errors reports the moved value's:
    `$p + 1` overflows before `A[i] * A[i]` is computed, where the oracle,
    which moves nothing, reports the overflow of `A[i] * A[i]`. Every
    backend reports the same one."""
    text = "@V i C[] += (A[i] * A[i] + 1) * ($p + 1)"
    ins, params = {"A": InputSpec([3], [2 ** 62, 0, 0])}, {"p": 2 ** 63 - 1}
    outs = {"C": OutputSpec(dims=[])}
    compiled = compile_kernel(parse(text), ins, outs, params)
    assert "let inv = $p + 1\n" in compiled.ir_text(), compiled.ir_text()
    assert raised(compiled, {"$p": 2 ** 63 - 1}) == \
        ["integer overflow: 9223372036854775808"] * len(BACKENDS)
    with pytest.raises(OracleError, match="^integer overflow: 21267647932558653966460912964485513216$"):
        oracle_outputs(text, ins, outs, params)


def test_no_region_guard_in_rle_stepping_loops():
    """A stepping loop's region [step, stride] is never empty, so no rle
    walk of the corpus tests `step <= stride`."""
    walks = 0
    for kernel, ins, outs, params, _ in corpus_cases(random.Random(7), 1):
        if not any(s.format[-1] == "rle" and s.protocols.get(len(s.format), "walk") == "walk"
                   for s in ins.values()):
            continue
        text = compile_kernel(parse(kernel), ins, outs, params).ir_text()
        if "while step" not in text:
            continue
        assert not re.search(r"if step\d* <= stride\d*$", text, re.M), text
        walks += 1
    assert walks >= 20
