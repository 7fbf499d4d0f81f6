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
from coil.api import InputSpec, Lowered, compile_kernel, runtime
from coil.interp import run_program
from coil.parser import parse

SPMSPV = "@V i j y[i] += A[i,j] * x[j]"
DOT = "@V i C[] += A[i] * B[i]"


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


CLAIMS = {
    "spmspv walk": (SPMSPV, spmspv("walk")),
    "spmspv gallop": (SPMSPV, spmspv("gallop")),
    "band dot": (DOT, band_dot),
    "gallop dot": (DOT, gallop_dot),
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
}


def measure(claim, n):
    """(IR lines, counters) of `claim` at size `n`, from the interpreter and
    from generated code, which must agree."""
    kernel, make = CLAIMS[claim]
    compiled = compile_kernel(parse(kernel), make(n))
    counts = []
    for generate in (False, True):
        buffers, writers = runtime(compiled)
        if generate:
            code, _ = codegen.generated(Lowered(compiled.program), buffers, {}, writers)
            counters = code(buffers, {}, writers)
        else:
            counters = run_program(compiled.program, buffers, writers=writers).counters
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
