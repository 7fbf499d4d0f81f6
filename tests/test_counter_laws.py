"""Exact operation counts of structured kernels at three sizes.

Each claim is a kernel, a format/protocol assignment and a generator over one
size parameter. For every size, `PINS` holds the printed IR's line count and
the exact `ExecCounters` of one run; the interpreter and the generated code
must both reproduce them. A lowering change that moves any count shows here
as a change to the pins, so the diff of this table lists how each law moved.

    PYTHONPATH=src python tests/test_counter_laws.py

prints the table for the current tree.
"""

import json
import random

import pytest

from coil import codegen
from coil.api import InputSpec, Lowered, OutputSpec, compile_kernel, runtime
from coil.interp import run_program
from coil.parser import parse

SPMSPV = "@V i j y[i] += A[i,j] * x[j]"
DOT = "@V i C[] += A[i] * B[i]"
CONV2D = ("@V i k j l C[i,k] += (A[i,k] != 0.0) * "
          "coalesce(A[permit[offset($c - i)[j]], permit[offset($c - k)[l]]], 0.0) * "
          "coalesce(F[permit[j], permit[l]], 0.0)")
BLEND = "@V i j A[i,j] = round($alpha * B[i,j] + $beta * C[i,j])"
SUM = "@V i C[] += A[i]"
FIXED_READ = "@V i C[] += A[3] * B[i]"


def spmspv(proto):
    """n x n dense.splist A with 30% stored, splist x with every fourth
    entry stored (the last at n), both stepped by `proto`."""
    def inputs(n):
        rng = random.Random(n)
        a = [rng.random() if rng.random() < 0.3 else 0.0 for _ in range(n * n)]
        x = [rng.random() if j % 4 == n % 4 else 0.0 for j in range(1, n + 1)]
        return {"A": InputSpec([n, n], a, format=["dense", "splist"], protocols={2: proto}),
                "x": InputSpec([n], x, format=["splist"], protocols={1: proto})}
    return inputs


def band_dot(n):
    """Criterion 7's assignment: splist A with every third entry stored,
    sband B whose band covers the middle half."""
    a = [float(k) if k % 3 == 1 else 0.0 for k in range(n)]
    b = [float(k + 1) if n // 4 <= k < 3 * n // 4 else 0.0 for k in range(n)]
    return {"A": InputSpec([n], a, format=["splist"]),
            "B": InputSpec([n], b, format=["sband"])}


def gallop_dot(n):
    """Skewed gallop intersection: A stores 4 entries, B every other one."""
    a = [1.0 if k % (n // 4) == n // 8 else 0.0 for k in range(n)]
    b = [float(k) if k % 2 == 0 else 0.0 for k in range(n)]
    return {name: InputSpec([n], v, format=["splist"], protocols={1: "gallop"})
            for name, v in (("A", a), ("B", b))}


def svbl_dot(n):
    """svbl A of 8 blocks of length n, one every 2n indices, against a
    dense B: the law is in the reads per stored value."""
    a = [float(k % n + 1) if k // n % 2 == 0 else 0.0 for k in range(16 * n)]
    b = [float(k % 7) for k in range(16 * n)]
    return {"A": InputSpec([16 * n], a, format=["svbl"]),
            "B": InputSpec([16 * n], b)}


def conv2d_dense(n):
    """The masked 2-D convolution of a dense (n/4) x (n/4) A with half its
    entries stored by a dense 3 x 3 filter."""
    m = n // 4
    a = [float(k % 5) if k % 2 == 0 else 0.0 for k in range(m * m)]
    f = [float(k + 1) for k in range(9)]
    return ({"A": InputSpec([m, m], a, format=["dense", "dense"]),
             "F": InputSpec([3, 3], f)},
            {"C": OutputSpec(dims=[m, m])}, {"c": 2})


def dense_blend(n):
    """The alpha blend of two dense 4 x n images."""
    b = [float(k % 11) for k in range(4 * n)]
    c = [float(k % 13) for k in range(4 * n)]
    return ({"B": InputSpec([4, n], b, format=["dense", "dense"]),
             "C": InputSpec([4, n], c, format=["dense", "dense"])},
            {"A": OutputSpec(dims=[4, n])}, {"alpha": 0.25, "beta": 0.75})


def rle_sum(n):
    """The sum of an rle vector of n / 4 runs of length 4."""
    return {"A": InputSpec([n], [float(k // 4 % 3) for k in range(n)], format=["rle"])}


def fixed_read(fmt):
    """`A[3] * B[i]` summed over a dense B, A in `fmt` with every other
    entry stored: the read of A is the same in every iteration."""
    def inputs(n):
        return {"A": InputSpec([n], [float(k) if k % 2 == 0 else 0.0 for k in range(n)],
                               format=[fmt]),
                "B": InputSpec([n], [float(k % 3) for k in range(n)])}
    return inputs


CLAIMS = {
    "spmspv walk": (SPMSPV, spmspv("walk")),
    "spmspv gallop": (SPMSPV, spmspv("gallop")),
    "band dot": (DOT, band_dot),
    "gallop dot": (DOT, gallop_dot),
    "svbl dot": (DOT, svbl_dot),
    "conv2d dense": (CONV2D, conv2d_dense),
    "dense blend": (BLEND, dense_blend),
    "rle sum": (SUM, rle_sum),
    "fixed read rle": (FIXED_READ, fixed_read("rle")),
    "fixed read splist": (FIXED_READ, fixed_read("splist")),
}
SIZES = (16, 32, 64)

FIELDS = ("loop_iterations", "buffer_reads", "buffer_writes", "multiplies", "adds",
          "searches", "compares")

# (claim, n): (IR lines, loop_iterations, buffer_reads, buffer_writes,
#              multiplies, adds, searches, compares, reads_by_buffer)
PINS = {
    ("spmspv walk", 16): (26, 127, 586, 23, 23, 341, 32, 619,
        {"A_idx": 238, "A_pos": 80, "A_val": 23, "x_idx": 222, "x_val": 23}),
    ("spmspv walk", 32): (26, 498, 2202, 73, 73, 1197, 64, 2458,
        {"A_idx": 964, "A_pos": 160, "A_val": 73, "x_idx": 932, "x_val": 73}),
    ("spmspv walk", 64): (26, 1929, 8376, 266, 266, 4380, 128, 9581,
        {"A_idx": 3794, "A_pos": 320, "A_val": 266, "x_idx": 3730, "x_val": 266}),
    ("spmspv gallop", 16): (53, 92, 587, 23, 23, 323, 105, 510,
        {"A_idx": 202, "A_pos": 162, "A_val": 23, "x_idx": 177, "x_val": 23}),
    ("spmspv gallop", 32): (53, 306, 2049, 73, 73, 1101, 335, 1754,
        {"A_idx": 752, "A_pos": 534, "A_val": 73, "x_idx": 617, "x_val": 73}),
    ("spmspv gallop", 64): (53, 1138, 7749, 266, 266, 4057, 1185, 6643,
        {"A_idx": 2952, "A_pos": 1880, "A_val": 266, "x_idx": 2385, "x_val": 266}),
    ("band dot", 16): (12, 4, 14, 3, 3, 10, 1, 13,
        {"A_idx": 8, "A_val": 3, "B_val": 3}),
    ("band dot", 32): (12, 6, 22, 5, 5, 16, 1, 19,
        {"A_idx": 12, "A_val": 5, "B_val": 5}),
    ("band dot", 64): (12, 12, 46, 11, 11, 34, 1, 37,
        {"A_idx": 24, "A_val": 11, "B_val": 11}),
    ("gallop dot", 16): (47, 4, 27, 4, 4, 9, 5, 24,
        {"A_idx": 8, "A_val": 4, "B_idx": 11, "B_val": 4}),
    ("gallop dot", 32): (47, 4, 28, 4, 4, 8, 6, 25,
        {"A_idx": 8, "A_val": 4, "B_idx": 12, "B_val": 4}),
    ("gallop dot", 64): (47, 4, 28, 4, 4, 8, 6, 25,
        {"A_idx": 8, "A_val": 4, "B_idx": 12, "B_val": 4}),
    ("svbl dot", 16): (20, 136, 328, 128, 128, 336, 1, 49,
        {"A_idx": 40, "A_ofs": 32, "A_val": 128, "B_val": 128}),
    ("svbl dot", 32): (20, 264, 584, 256, 256, 592, 1, 49,
        {"A_idx": 40, "A_ofs": 32, "A_val": 256, "B_val": 256}),
    ("svbl dot", 64): (20, 520, 1096, 512, 512, 1104, 1, 49,
        {"A_idx": 40, "A_ofs": 32, "A_val": 512, "B_val": 512}),
    ("conv2d dense", 16): (26, 160, 240, 100, 320, 660, 0, 100,
        {"A_val": 140, "F_val": 100}),
    ("conv2d dense", 32): (26, 732, 1144, 484, 1496, 2972, 0, 392,
        {"A_val": 660, "F_val": 484}),
    ("conv2d dense", 64): (26, 3124, 4968, 2116, 6440, 12588, 0, 1552,
        {"A_val": 2852, "F_val": 2116}),
    ("dense blend", 16): (8, 68, 128, 64, 132, 260, 0, 0,
        {"B_val": 64, "C_val": 64}),
    ("dense blend", 32): (8, 132, 256, 128, 260, 516, 0, 0,
        {"B_val": 128, "C_val": 128}),
    ("dense blend", 64): (8, 260, 512, 256, 516, 1028, 0, 0,
        {"B_val": 256, "C_val": 256}),
    ("rle sum", 16): (12, 4, 12, 4, 4, 16, 1, 13,
        {"A_idx": 8, "A_val": 4}),
    ("rle sum", 32): (12, 8, 24, 8, 8, 32, 1, 25,
        {"A_idx": 16, "A_val": 8}),
    ("rle sum", 64): (12, 16, 48, 16, 16, 64, 1, 49,
        {"A_idx": 32, "A_val": 16}),
    ("fixed read rle", 16): (7, 16, 19, 16, 16, 1, 1, 0,
        {"A_pos": 2, "A_val": 1, "B_val": 16}),
    ("fixed read rle", 32): (7, 32, 35, 32, 32, 1, 1, 0,
        {"A_pos": 2, "A_val": 1, "B_val": 32}),
    ("fixed read rle", 64): (7, 64, 67, 64, 64, 1, 1, 0,
        {"A_pos": 2, "A_val": 1, "B_val": 64}),
    ("fixed read splist", 16): (11, 16, 36, 16, 16, 2, 1, 2,
        {"A_idx": 1, "A_pos": 3, "A_val": 16, "B_val": 16}),
    ("fixed read splist", 32): (11, 32, 68, 32, 32, 2, 1, 2,
        {"A_idx": 1, "A_pos": 3, "A_val": 32, "B_val": 32}),
    ("fixed read splist", 64): (11, 64, 132, 64, 64, 2, 1, 2,
        {"A_idx": 1, "A_pos": 3, "A_val": 64, "B_val": 64}),
}


def measure(claim, n):
    """(IR lines, counters) of `claim` at size `n`, from the interpreter and
    from generated code, which must agree."""
    kernel, make = CLAIMS[claim]
    job = make(n)
    inputs, outputs, params = job if isinstance(job, tuple) else (job, None, None)
    compiled = compile_kernel(parse(kernel), inputs, outputs, params)
    mparams = {f"${k}": v for k, v in (params or {}).items()}
    counts = []
    for generate in (False, True):
        buffers, writers = runtime(compiled)
        if generate:
            code, _ = codegen.generated(Lowered(compiled.program), buffers, mparams, writers)
            counters = code(buffers, mparams, writers)
        else:
            counters = run_program(compiled.program, buffers, mparams, writers).counters
        d = counters.as_dict()
        counts.append((*(d[k] for k in FIELDS), d["reads_by_buffer"]))
    assert counts[0] == counts[1], (claim, n)
    return (len(compiled.ir_text().splitlines()), *counts[0])


@pytest.mark.parametrize("claim,n", sorted(PINS))
def test_counter_law(claim, n):
    assert measure(claim, n) == PINS[claim, n]


def test_every_claim_is_pinned_at_three_sizes():
    assert sorted(PINS) == sorted((c, n) for c in CLAIMS for n in SIZES)


if __name__ == "__main__":
    for claim in CLAIMS:
        for n in SIZES:
            *head, rb = measure(claim, n)
            print(f'    ("{claim}", {n}): ({", ".join(map(str, head))},\n'
                  f'        {json.dumps(rb)}),')
