"""Payloads that record the cells written into them (`storage.Scattered`).

`tensorio.matrix_market_dense` returns one. Binding it to a format whose
fill equals its background assembles the sparse levels from the recorded
cells. Every other payload, and every fill that a recorded cell or the
background could differ from, takes the scan. Either way the tensor must be
the one that the scan of the same cells builds, with the same dtype and
with recorded facts that equal a scan of each array.
"""

import itertools
import math
import pathlib
import random

import pytest

from coil import api, cli, storage
from coil.api import _format
from coil.parser import parse
from coil.storage import Scattered, from_dense, scattered
from coil.tensorio import matrix_market_dense
from coil.values import MISSING

from test_acceptance import corpus_cases
from test_facts import check_recorded

KERNELS = pathlib.Path(__file__).parent.parent / "kernels"
FILLS = [0.0, 0, -0.0, 1.0, math.nan, MISSING]


def corpus_specs():
    """Every level spec (with its rank) the oracle corpus binds an input to."""
    specs = set()
    for _, inputs, _, _, _ in corpus_cases(random.Random(5), 1):
        for spec in inputs.values():
            specs.add(tuple(_format(spec.format, len(spec.dims))))
    return sorted(specs)


def same_tensor(a, b) -> bool:
    """Equal levels, dims, fill and dtype; repr also tells -0.0 from 0.0,
    0 from 0.0 and True from 1."""
    return a == b and repr(a) == repr(b)


def check_against_scan(payload, dims, spec, fill, dtype=None):
    """`from_dense` on a recorded payload builds what it builds on a plain
    copy, and records only facts a scan reads."""
    got = from_dense("A", dims, payload, list(spec), fill, dtype)
    want = from_dense("A", dims, list(payload), list(spec), fill, dtype)
    assert same_tensor(got, want), (spec, fill, dtype)
    assert check_recorded(got) >= check_recorded(want)
    return got


def random_payload(rng, dims, kind):
    """A recorded payload of zeros of `kind` with a few cells written over:
    some of them with zero, some of them with values of another sign."""
    n = math.prod(dims)
    zero = kind(0)
    cells = rng.sample(range(n), rng.randint(0, n))
    draw = (lambda: rng.choice([0.0, -0.0, rng.uniform(-2, 2), 1.0])) if kind is float \
        else (lambda: rng.choice([0, rng.randint(-5, 5), 1]))
    values = [draw() for _ in cells]
    return scattered(n, zero, cells, values, {kind})


@pytest.mark.parametrize("spec", corpus_specs(), ids=".".join)
def test_recorded_payloads_assemble_as_scanned(spec):
    rank = len([k for k in spec if k != "elem"])
    rng = random.Random(hash(spec) % 1000)
    shapes = {1: [[1], [5], [9]], 2: [[1, 4], [3, 5], [4, 1]], 3: [[2, 3, 4]]}[rank]
    for dims, kind, fill in itertools.product(shapes, (float, int), FILLS):
        for _ in range(3):
            payload = random_payload(rng, dims, kind)
            for dtype in (None, "float" if kind is float else "int"):
                check_against_scan(payload, dims, spec, fill, dtype)
            assert payload.offsets is not None  # binding reads the record, never changes it


class Counted(Scattered):
    """A recorded payload that counts how often it is iterated."""

    __slots__ = ()
    iterations = 0

    def __iter__(self):
        Counted.iterations += 1
        return list.__iter__(self)


class CountedList(list):
    """A plain payload that counts how often it is iterated."""

    __iter__ = Counted.__iter__


def iterations(payload, dims, *spec_fill_dtype) -> int:
    """How often binding `payload` iterates it."""
    Counted.iterations = 0
    from_dense("A", dims, payload, *spec_fill_dtype)
    return Counted.iterations


@pytest.mark.parametrize("fill", FILLS, ids=repr)
def test_record_is_read_only_where_the_scan_agrees(fill):
    payload = scattered(6, 0.0, [4, 1], [2.5, 0.0], {float})
    assert list(payload.offsets) == [1, 4]
    payload.__class__ = Counted
    background = type(fill) in (int, float) and fill == 0  # the background equals the fill
    assert iterations(payload, [2, 3], ["dense", "splist"], fill) == (0 if background else 1)
    if background:  # the explicit zero at cell 1 is not stored
        assert from_dense("A", [2, 3], payload, ["dense", "splist"], fill).levels()[1].idx == [2]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_a_bind_iterates_a_plain_payload_at_most_once(rank):
    """However many sparse levels a spec has, binding a plain payload
    iterates it at most once for its stored cells, if a level is sparse, and
    once for its types, if the dtype is inferred or a level is run-length; a
    recorded payload whose background is the fill is never iterated."""
    rng = random.Random(rank)
    modes = ("dense", "splist", "sband", "svbl")
    dims = [2, 3, 4][:rank]
    for body in itertools.product(modes, repeat=rank - 1):
        for last in modes + ("rle",):
            spec = [*body, last]
            payload = random_payload(rng, dims, float)
            for dtype in (None, "float"):
                plain = CountedList(payload)
                sparse = any(k in ("splist", "sband", "svbl") for k in spec)
                typed = dtype is None or last == "rle"
                assert iterations(plain, dims, spec, 0.0, dtype) <= sparse + typed, (spec, dtype)
                payload.__class__ = Counted
                assert iterations(payload, dims, spec, 0.0, dtype) == 0, (spec, dtype)
                payload.__class__ = Scattered


def test_rank_three_and_every_mode_kind():
    rng = random.Random(3)
    modes = ("dense", "splist", "sband", "svbl")
    for a, b in itertools.product(modes, modes):
        for last in modes + ("rle",):
            payload = random_payload(rng, [3, 4, 5], float)
            for fill in FILLS:
                check_against_scan(payload, [3, 4, 5], (a, b, last), fill)


MUTATIONS = {
    "__setitem__": lambda p: p.__setitem__(0, 1.0),
    "__delitem__": lambda p: p.__delitem__(0),
    "__iadd__": lambda p: p.__iadd__([1.0]),
    "__imul__": lambda p: p.__imul__(1),
    "append": lambda p: p.append(1.0),
    "extend": lambda p: p.extend([1.0]),
    "insert": lambda p: p.insert(0, 1.0),
    "pop": lambda p: p.pop(),
    "remove": lambda p: p.remove(0.0),
    "reverse": lambda p: p.reverse(),
    "sort": lambda p: p.sort(key=abs),
    "clear": lambda p: p.clear(),
}


def test_every_list_mutator_drops_the_record():
    mutators = {name for name, attr in vars(list).items()
                if callable(attr) and name not in vars(object)
                and name not in ("copy", "count", "index", "__getitem__", "__len__",
                                 "__contains__", "__iter__", "__reversed__", "__add__",
                                 "__mul__", "__rmul__", "__sizeof__", "__class_getitem__")}
    assert mutators == set(MUTATIONS)
    for name, mutate in MUTATIONS.items():
        payload = scattered(4, 0.0, [2, 3], [1.5, 2.5], {float})
        mutate(payload)
        assert payload.offsets is None, name
        assert storage.payload_types(payload) == set(map(type, payload)), name
    # slices, copies and products are plain lists
    payload = scattered(4, 0.0, [2], [1.5], {float})
    for other in (payload[:], payload.copy(), payload + [], payload * 1, list(payload)):
        assert type(other) is list


def test_a_written_payload_binds_as_scanned():
    """A payload changed after it was read is scanned: the cell written last
    is stored, though the record never named it."""
    payload = scattered(6, 0.0, [1], [2.5], {float})
    payload[4] = 7.0
    t = check_against_scan(payload, [2, 3], ("dense", "splist"), 0.0)
    assert t.levels()[-1].val == [2.5, 7.0]


class Unscannable(Scattered):
    """A recorded payload that counts its cell reads and cannot be iterated."""

    __slots__ = ()
    reads = 0

    def __iter__(self):
        raise AssertionError("the payload was scanned")

    def __getitem__(self, k):
        Unscannable.reads += 1
        return list.__getitem__(self, k)


def test_binding_a_recorded_splist_reads_only_its_cells():
    """O(stored): a dense.splist bind, dtype inferred, reads each recorded
    cell once and iterates nothing, nor does compiling and running it."""
    rng = random.Random(7)
    n = 300
    cells = rng.sample(range(n * n), 40)
    payload = scattered(n * n, 0.0, cells, [rng.random() + 1 for _ in cells], {float})
    want = from_dense("A", [n, n], list(payload), ["dense", "splist"], 0.0)
    payload.__class__ = Unscannable
    Unscannable.reads = 0
    ins = {"A": api.InputSpec([n, n], payload, ["dense", "splist"], 0.0),
           "x": api.InputSpec([n], [1.0] * n, ["dense"])}
    compiled = api.compile_kernel(parse("@V i j y[i] += A[i,j] * x[j]"), ins)
    result = api.execute(compiled)
    got = compiled.tensors["A"].tensor
    assert same_tensor(got, want) and got.dtype == "float"
    assert Unscannable.reads == len(cells)
    assert sum(result.dense["y"]) == pytest.approx(sum(want.levels()[-1].val))
    assert got.levels()[-1].known["val"] == (frozenset({float}), ())


# .mtx bodies: explicit zeros, duplicates that sum to zero, symmetric,
# unsorted, pattern, integer and array layout
MTX = {
    "explicit zeros": "coordinate real general\n3 4 4\n1 2 0.0\n2 2 -0.0\n3 1 2.5\n3 4 1.0\n",
    "duplicates to zero": "coordinate integer general\n3 3 4\n1 1 3\n2 3 7\n1 1 -3\n3 3 1\n",
    "symmetric": "coordinate real symmetric\n3 3 3\n2 1 1.5\n3 3 -2.0\n3 2 0.0\n",
    "unsorted": "coordinate real general\n3 3 4\n3 3 1.0\n1 2 2.0\n2 1 3.0\n1 1 4.0\n",
    "pattern": "coordinate pattern general\n2 3 2\n2 3\n1 1\n",
    "integer": "coordinate integer general\n2 2 3\n1 1 9223372036854775807\n2 1 -4\n2 2 1\n",
    "array": "array real general\n2 3\n1.0\n0.0\n0.0\n-2.5\n3.0\n0.0\n",
}


@pytest.mark.parametrize("label", sorted(MTX))
def test_matrix_market_payloads_assemble_as_scanned(tmp_path, label):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix " + MTX[label], encoding="utf-8")
    dims, payload, dtype = matrix_market_dense(str(path))
    zero = 0.0 if dtype == "float" else 0
    assert type(payload) is Scattered and payload.background == zero
    assert payload.types == {type(zero)} and set(map(type, payload)) == {type(zero)}
    assert list(payload.offsets) == sorted(payload.offsets)
    assert all(payload[k] == zero for k in set(range(len(payload))) - set(payload.offsets))
    for spec, fill in itertools.product(corpus_specs(), FILLS):
        if len([k for k in spec if k != "elem"]) == 2:
            check_against_scan(payload, dims, spec, fill)
            check_against_scan(payload, dims, spec, fill, dtype)


def _spmspv(tmp_path):
    mtx = tmp_path / "a.mtx"
    rng = random.Random(11)
    n = 12
    cells = sorted(rng.sample(range(n * n), 30))
    mtx.write_text(f"%%MatrixMarket matrix coordinate real general\n{n} {n} {len(cells) + 1}\n"
                   + "".join(f"{k // n + 1} {k % n + 1} {rng.uniform(-1, 1)!r}\n" for k in cells)
                   + "1 1 0.0\n", encoding="utf-8")
    return mtx, n


@pytest.mark.parametrize("extra,recorded", [("", True), (",fill=1.0", False)])
def test_check_reads_the_record_only_where_it_may(capsys, tmp_path, monkeypatch, extra,
                                                   recorded):
    """`coil check` binds a .mtx input from its record under its zero fill,
    and scans it under fill 1.0; both agree with the oracle."""
    paths = []

    class Spy(storage._Assembly):
        def level(self, k, fibers):
            if k > 0 or type(self.data) is not Scattered:
                return super().level(k, fibers)
            self.data.__class__ = Counted
            Counted.iterations = 0
            try:
                return super().level(k, fibers)
            finally:
                self.data.__class__ = Scattered
                paths.append(Counted.iterations == 0)  # read from the record, not scanned

    monkeypatch.setattr(storage, "_Assembly", Spy)
    mtx, n = _spmspv(tmp_path)
    rc = cli.main([str(a) for a in ["check", "--kernel", KERNELS / "spmspv.cin",
                   "--tensor", f"A={mtx},format=dense.splist{extra}",
                   "--tensor", f"x=random:dims={n},density=0.5,seed=3,format=splist",
                   "--trials", "2"]])
    out = capsys.readouterr().out
    assert rc == 0 and "MISMATCH" not in out and "all 2 trials agree" in out, out
    assert paths == [recorded] * 2
