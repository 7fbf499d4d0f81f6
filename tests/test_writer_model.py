"""Property test of the append writers against a dense model.

Random write sequences, ascending over outputs of 1-3 modes whose last mode
is a sparse list or run-length level, go to the writer and to a dense list
of cells. The sequences skip fibers, leave gaps, repeat the last index with a
combining op, and re-`init` the writer midway; values mix NaN, -0.0, and 1
against 1.0 against True, over fills of every type. The frozen tensor must
validate and expand to the model's cells, each of the model's type.

A run-length writer extends a run with an equal value of the same type, so
a run holds its first value: its cells equal the model's in value and type,
and -0.0 may read as 0.0. A sparse list stores every value as written, sign
of zero included.

The sequences come from seeded `random.Random`s; when hypothesis is
installed, it also draws them, derandomized, and shrinks a failing one.
"""

import math
import random

import pytest

from coil.storage import to_dense, validate
from coil.unfurl import WriterPlan
from coil.values import apply_op, coerce

VALUES = {"float": [float("nan"), -0.0, 0.0, 1, 1.0, True, 2.5, -3.0],
          "int": [0, 1, True, False, -2, 7],
          "bool": [True, False]}
OPS = {"float": ["set", "add", "max"], "int": ["set", "add", "max"], "bool": ["set", "or"]}
# fills a combining op can meet; a float output's are of every type
FILLS = {"float": [0.0, -0.0, 0, 1, 1.0, True, False, float("nan")],
         "int": [0, 1, True, False], "bool": [True, False]}


def same(a, b, exact) -> bool:
    """Equal and of one type, NaN equal to NaN; when `exact`, floats also
    in sign of zero."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and (not exact or math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


class Model:
    """The cells the writes leave, and the hook calls that make them."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        rank = rng.randint(1, 3)
        self.kind = rng.choice(["splist", "rle"])
        self.dtype = rng.choice(["float", "float", "int", "bool"])
        self.dims = [rng.randint(1, 3) for _ in range(rank - 1)] + [rng.randint(1, 8)]
        self.fill = rng.choice(FILLS[self.dtype])
        self.plan = WriterPlan("y", self.dims, self.fill, self.dtype,
                               ["dense"] * (rank - 1) + [self.kind])

    def fibers(self):
        """Index prefixes of the last mode's fibers, in row-major order."""
        out = [[]]
        for d in self.dims[:-1]:
            out = [p + [i] for p in out for i in range(1, d + 1)]
        return out

    def sequence(self):
        """(prefix, lo, hi, op, value) writes, ascending; lo == hi unless
        a run write."""
        rng, size = self.rng, self.dims[-1]
        writes = []
        for prefix in self.fibers():
            if rng.random() < 0.3:
                continue  # skipped fiber
            i = 0
            while True:
                i += rng.choice([1, 1, 1, 2, 3])  # gaps
                if i > size:
                    break
                hi = i
                if self.kind == "rle" and rng.random() < 0.4:
                    hi = rng.randint(i, size)
                    writes.append((prefix, i, hi, "set", rng.choice(VALUES[self.dtype])))
                else:
                    writes.append((prefix, i, i, rng.choice(OPS[self.dtype]),
                                   rng.choice(VALUES[self.dtype])))
                while hi == i and rng.random() < 0.3:  # repeat the last index
                    ops = OPS[self.dtype][1:] if self.kind == "rle" else OPS[self.dtype]
                    writes.append((prefix, i, i, rng.choice(ops),
                                   rng.choice(VALUES[self.dtype])))
                i = hi
        return writes

    def apply(self, writer, cells, write):
        prefix, lo, hi, op, value = write
        f = 0
        for k, i in enumerate(prefix):
            f = f * self.dims[k] + (i - 1)
        base = f * self.dims[-1]
        stored = coerce(self.dtype, value)
        for i in range(lo, hi + 1):
            old = cells[base + i - 1]
            cells[base + i - 1] = stored if op == "set" else coerce(
                self.dtype, apply_op(op, [self.fill if old is None else old, stored]))
        if lo == hi and (op != "set" or self.kind == "splist"):
            writer.append([*prefix, lo], op, value)
        else:
            writer.run_set(prefix, lo, hi, value)


def check(rng: random.Random):
    m = Model(rng)
    writer = m.plan.writer(m.plan)
    for _ in range(rng.randint(1, 3)):  # re-init between sequences
        writer.init()
        cells = [None] * math.prod(m.dims)
        for write in m.sequence():
            m.apply(writer, cells, write)
        if rng.random() < 0.3:
            writer.finalize()
        t = writer.freeze()
        validate(t)
        got = to_dense(t)
        want = [m.fill if c is None else c for c in cells]
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(got, want)):
            assert same(a, b, exact=m.kind == "splist"), (m.kind, m.dtype, m.dims, m.fill, k)
        if m.kind == "splist":
            assert len(t.levels()[-1].val) == sum(c is not None for c in cells)


@pytest.mark.parametrize("first", range(0, 400, 50))
def test_writers_match_a_dense_model(first):
    for seed in range(first, first + 50):
        try:
            check(random.Random(seed))
        except AssertionError as ex:
            raise AssertionError(f"seed {seed}: {ex}") from None


def test_writers_match_a_dense_model_under_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(strategies.randoms(use_true_random=False))
    def run(rng):
        check(rng)

    run()
