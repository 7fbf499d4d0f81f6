"""Level-path IR snapshot: the locate and guard paths the corpus never lowers.

The corpus snapshot (`test_ir_snapshot.py`) unfurls every access at its own
loop. These programs instead read a tensor at an index that is not the loop
index, so lowering locates into each level kind: a constant index
(`A[3]`), a permitted or offset-and-permitted parameter index
(`A[permit[$k]]`), and a constant row of a matrix whose inner level is any
kind (`A[2, i]`). Each program's printed IR, loop count and counters must
match `goldens/level_paths_ir.txt` byte for byte, lowered cold and served
warm from the program cache, and its outputs must match the dense oracle.

The inadmissible (level kind, protocol) pairs are checked here too: each
raises a `CompileError` naming the tensor and the protocol, and `coil run`
exits 2 on it.

    PYTHONPATH=src python tests/test_level_paths.py > tests/goldens/level_paths_ir.txt

writes the snapshot of the current tree.
"""

import pathlib

import pytest

from coil import cli
from coil.api import InputSpec, compile_kernel, execute, oracle_outputs, runtime
from coil.parser import parse
from coil.unfurl import CompileError

from ir_verifier import verify
from test_ir_snapshot import cold_and_warm, render

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "level_paths_ir.txt"
KINDS = ("rle", "sband", "svbl", "splist", "dense")

# stored at 2, 3, 6 and 8, fill at 4 and 5; runs of 2.0 and of fill
VEC = [0.0, 2.0, 2.0, 0.0, 0.0, 5.0, 0.0, 1.5]
B = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
# row 2 is VEC, row 1 all fill, row 3 one run
MAT = [0.0] * 8 + VEC + [4.0] * 8

VEC_KERNELS = [
    ("@V i C[] += A[3] * B[i]", {}),
    ("@V i C[] += A[5] * B[i]", {}),
    ("@V i C[] += coalesce(A[permit[$k]], 0.0) * B[i]", {"k": 6}),
    ("@V i C[] += coalesce(A[permit[$k]], 0.0) * B[i]", {"k": 11}),
    ("@V i C[] += coalesce(A[permit[offset($d)[$k]]], 0.0) * B[i]", {"d": 2, "k": 8}),
    ("@V i C[] += coalesce(A[permit[offset($d)[$k]]], 0.0) * B[i]", {"d": 2, "k": 1}),
]
MAT_KERNELS = [
    ("@V i C[] += A[2, i] * B[i]", {}),
    ("@V i C[] += A[2, 3] * B[i]", {}),
    ("@V i C[] += coalesce(A[permit[$k], i], 0.0) * B[i]", {"k": 2}),
    ("@V i C[] += coalesce(A[permit[$k], i], 0.0) * B[i]", {"k": 4}),
    ("@V i C[] += coalesce(A[2, permit[offset($d)[i]]], 0.0) * B[i]", {"d": 3}),
]


def level_path_cases():
    """(kernel, inputs, params) for every level-path program."""
    for kind in KINDS:
        for kernel, params in VEC_KERNELS:
            yield kernel, {"A": InputSpec([8], VEC, format=[kind]),
                           "B": InputSpec([8], B)}, params
    for kind in KINDS:
        for kernel, params in MAT_KERNELS:
            yield kernel, {"A": InputSpec([3, 8], MAT, format=["dense", kind]),
                           "B": InputSpec([8], B)}, params


def level_path_programs():
    for n, (kernel, inputs, params) in enumerate(level_path_cases(), start=1):
        binds = " ".join(f"{name}={'.'.join(spec.format)}" for name, spec in inputs.items())
        ps = "".join(f" ${k}={v}" for k, v in sorted(params.items()))
        header = f"### case {n}: {kernel} | {binds}{ps}"
        yield header, compile_kernel(parse(kernel), inputs, {}, params), params


def test_level_path_ir_snapshot():
    cold, warm = cold_and_warm(level_path_programs)
    assert cold == warm == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("kernel,inputs,params", list(level_path_cases()))
def test_level_path_matches_oracle(kernel, inputs, params):
    compiled = compile_kernel(parse(kernel), inputs, {}, params)
    buffers, writers = runtime(compiled)
    assert verify(compiled.program, buffers, params, writers) == []
    got = execute(compiled, params).dense
    assert got == oracle_outputs(kernel, inputs, {}, params)


ADMISSIBLE = {
    "dense": ("walk", "follow", "followzero"),
    "splist": ("walk", "gallop", "follow"),
    "sband": ("walk", "follow"),
    "svbl": ("walk",),
    "rle": ("walk", "follow"),
}
INADMISSIBLE = [(kind, proto) for kind in KINDS
                for proto in ("walk", "gallop", "follow", "followzero", "zigzag")
                if proto not in ADMISSIBLE[kind]]


@pytest.mark.parametrize("kind,proto", INADMISSIBLE)
def test_inadmissible_protocol_is_compile_error(kind, proto, tmp_path, capsys):
    ins = {"A": InputSpec([8], VEC, format=[kind], protocols={1: proto})}
    with pytest.raises(CompileError) as e:
        compile_kernel(parse("@V i C[] += A[i]"), ins)
    assert "A" in str(e.value) and repr(proto) in str(e.value)
    kernel = tmp_path / "sum.cin"
    kernel.write_text("@V i C[] += A[i]\n", encoding="utf-8")
    rc = cli.main(["run", "--kernel", str(kernel),
                   "--tensor", f"A=random:dims=8,density=0.5,seed=1,format={kind}",
                   "--protocol", f"A.1={proto}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and repr(proto) in err


def test_followzero_needs_a_scalar_leaf():
    ins = {"A": InputSpec([2, 4], [0.0, 1.0] * 4, format=["dense", "dense"],
                          protocols={1: "followzero"})}
    with pytest.raises(CompileError, match="A: zero-check protocol needs a scalar leaf"):
        compile_kernel(parse("@V i j C[] += A[i, j]"), ins)


if __name__ == "__main__":
    import sys

    sys.stdout.write(render(level_path_programs()))
