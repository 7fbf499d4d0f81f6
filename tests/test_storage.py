import itertools
import math
import random
import re
from bisect import bisect_right
from typing import List

import pytest

from coil import storage
from coil.storage import (
    Dense,
    Element,
    FormatError,
    Level,
    OverlappingBlocks,
    PosRegression,
    RepeatRLE,
    RunCoverage,
    SparseBand,
    SparseList,
    SparseVBL,
    Tensor,
    UnsortedIndices,
    buffer_names,
    from_dense,
    tensor_buffers,
    to_dense,
    validate,
)
from coil.values import MISSING, is_missing

FIG_A = [0, 1.9, 0, 3.0, 0, 2.7, 0, 5.5, 0, 0, 0]
FIG_B = [0, 0, 0, 3.7, 4.7, 9.2, 1.5, 8.2, 0, 0, 0]


def test_sparse_list_layout():
    t = from_dense("A", [11], FIG_A, ["splist"], 0)
    assert t.root.idx == [2, 4, 6, 8]
    assert t.root.pos == [1, 5]
    assert t.root.child.val == [1.9, 3.0, 2.7, 5.5]
    assert to_dense(t) == FIG_A


def test_band_layout():
    t = from_dense("B", [11], FIG_B, ["sband"], 0)
    assert t.root.start == [4] and t.root.stop == [8]
    assert t.root.child.val == [3.7, 4.7, 9.2, 1.5, 8.2]
    assert to_dense(t) == FIG_B


def test_rle_single_run():
    t = from_dense("R", [4], [7, 7, 7, 7], ["rle"], 0)
    assert t.root.idx == [4] and t.root.val == [7]


def test_vbl_round_trip():
    data = [0, 1, 2, 0, 0, 3, 0]
    t = from_dense("V", [7], data, ["svbl"], 0)
    assert to_dense(t) == data
    assert t.root.idx == [3, 6]


def test_all_fill_round_trip():
    for fmt in (["splist"], ["sband"], ["svbl"], ["rle"], ["dense"]):
        t = from_dense("Z", [6], [0.0] * 6, fmt, 0.0)
        assert to_dense(t) == [0.0] * 6


@pytest.mark.parametrize("fmt", [
    ("dense", "dense"), ("dense", "splist"), ("dense", "sband"),
    ("dense", "svbl"), ("dense", "rle"), ("splist", "splist"),
    ("splist", "dense"), ("sband", "splist"), ("svbl", "rle"),
])
def test_matrix_round_trip(fmt):
    rng = random.Random(hash(fmt) % 100000)
    for trial in range(10):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        data = [rng.choice([0, 0, 0, 1, 2, 5]) for _ in range(n * m)]
        t = from_dense("M", [n, m], data, list(fmt), 0)
        assert to_dense(t) == data


def test_vector_round_trip_randomized():
    rng = random.Random(3)
    for fmt in ("splist", "sband", "svbl", "rle", "dense"):
        for _ in range(50):
            n = rng.randint(1, 20)
            data = [rng.choice([0.0, 0.0, 1.5, 2.5]) for _ in range(n)]
            t = from_dense("v", [n], data, [fmt], 0.0)
            assert to_dense(t) == data


def test_three_mode_round_trip():
    rng = random.Random(8)
    data = [rng.choice([0, 0, 3, 4]) for _ in range(2 * 3 * 4)]
    t = from_dense("T", [2, 3, 4], data, ["dense", "splist", "splist", "elem"], 0)
    assert to_dense(t) == data


def test_validator_rejects_unsorted_idx():
    lvl = SparseList(5, [1, 3], [4, 2], Element([1.0, 2.0]))
    with pytest.raises(UnsortedIndices):
        validate(Tensor("X", [5], lvl, 0.0, "float"))


def test_validator_rejects_pos_regression():
    lvl = SparseList(5, [2, 1], [1], Element([1.0]))
    with pytest.raises(PosRegression):
        validate(Tensor("X", [5], lvl, 0.0, "float"))


def test_validator_rejects_short_rle_runs():
    lvl = RepeatRLE(6, [1, 2], [4], [7])
    with pytest.raises(RunCoverage):
        validate(Tensor("X", [6], lvl, 0, "int"))


def test_validator_rejects_overlapping_vbl_blocks():
    # two blocks [1..3] and [3..4] overlap at 3
    lvl = SparseVBL(6, [1, 3], [3, 4], [1, 4, 6], Element([1.0] * 5))
    with pytest.raises(OverlappingBlocks):
        validate(Tensor("X", [6], lvl, 0.0, "float"))


def test_dtype_inference():
    assert from_dense("a", [2], [1, 2], ["dense"], 0).dtype == "int"
    assert from_dense("b", [2], [1.0, 2], ["dense"], 0).dtype == "float"
    assert from_dense("c", [2], [True, False], ["dense"], False).dtype == "bool"


def test_fill_values_beyond_zero():
    t = from_dense("m", [4], [True, True, False, True], ["splist"], False)
    assert t.root.idx == [1, 2, 4]
    assert to_dense(t) == [True, True, False, True]


def test_buffer_naming():
    t = from_dense("A", [2, 3], [0, 1, 0, 2, 0, 3], ["dense", "splist"], 0)
    names = buffer_names(t.name, t.format_spec())
    assert names[(2, "pos")] == "A_pos"
    assert names[(2, "idx")] == "A_idx"
    assert names[(3, "val")] == "A_val"
    # collision at two depths forces suffixes
    t2 = from_dense("B", [2, 2], [0, 1, 2, 0], ["splist", "splist"], 0)
    n2 = buffer_names(t2.name, t2.format_spec())
    assert n2[(1, "pos")] == "B_pos1" and n2[(2, "pos")] == "B_pos2"


def test_tensor_buffers_expose_payload():
    t = from_dense("A", [11], FIG_A, ["splist"], 0)
    bufs = tensor_buffers(t)
    assert bufs["A_idx"].data == [2, 4, 6, 8]
    assert bufs["A_val"].data == [1.9, 3.0, 2.7, 5.5]


def test_bad_spec_rejected():
    with pytest.raises(FormatError):
        from_dense("x", [4], [1, 2, 3, 4], ["rle", "elem", "elem"], 0)
    with pytest.raises(FormatError):
        from_dense("x", [2, 2], [1, 2, 3, 4], ["rle", "elem"], 0)  # rle must be a leaf
    with pytest.raises(FormatError):
        from_dense("x", [4], [1, 2], ["dense"], 0)  # wrong payload size
    with pytest.raises(FormatError):
        from_dense("x", [2, 2], [1, 2, 3, 4], ["dense"], 0)  # no all-dense shorthand here


# -- differential check against the per-cell builder ----------------------------
# The reference below is the earlier assembler, which sliced one sub-list per
# cell; the offset/mask assembler must produce field-for-field equal tensors.


def _infer_dtype(data, fill) -> str:
    cands = [v for v in data if not is_missing(v)]
    if not is_missing(fill):
        cands.append(fill)
    if not cands:
        return "float"
    if all(isinstance(v, bool) for v in cands):
        return "bool"
    if any(isinstance(v, float) for v in cands):
        return "float"
    return "int"


def _stored(slice_vals, fill) -> bool:
    if is_missing(fill):
        return any(not is_missing(v) for v in slice_vals)
    return any(is_missing(v) or v != fill for v in slice_vals)


def _build(kinds: List[str], k: int, dims: List[int], slices: List[list], fill) -> Level:
    kind = kinds[k]
    if kind == "elem":
        return Element([s[0] for s in slices])
    size = dims[k]
    ss = 1
    for d in dims[k + 1:]:
        ss *= d

    def sub(sl, i):
        return sl[(i - 1) * ss: i * ss]

    if kind == "dense":
        children = [sub(sl, i) for sl in slices for i in range(1, size + 1)]
        return Dense(size, _build(kinds, k + 1, dims, children, fill))
    if kind == "splist":
        pos, idx, children = [1], [], []
        for sl in slices:
            for i in range(1, size + 1):
                s = sub(sl, i)
                if _stored(s, fill):
                    idx.append(i)
                    children.append(s)
            pos.append(len(idx) + 1)
        return SparseList(size, pos, idx, _build(kinds, k + 1, dims, children, fill))
    if kind == "sband":
        start, stop, ofs, children = [], [], [1], []
        for sl in slices:
            stored = [i for i in range(1, size + 1) if _stored(sub(sl, i), fill)]
            if stored:
                a, b = stored[0], stored[-1]
            else:
                a, b = 1, 0
            start.append(a)
            stop.append(b)
            for i in range(a, b + 1):
                children.append(sub(sl, i))
            ofs.append(len(children) + 1)
        return SparseBand(size, start, stop, ofs, _build(kinds, k + 1, dims, children, fill))
    if kind == "svbl":
        pos, idx, ofs, children = [1], [], [1], []
        for sl in slices:
            i = 1
            while i <= size:
                if _stored(sub(sl, i), fill):
                    j = i
                    while j + 1 <= size and _stored(sub(sl, j + 1), fill):
                        j += 1
                    idx.append(j)
                    for q in range(i, j + 1):
                        children.append(sub(sl, q))
                    ofs.append(len(children) + 1)
                    i = j + 1
                else:
                    i += 1
            pos.append(len(idx) + 1)
        return SparseVBL(size, pos, idx, ofs, _build(kinds, k + 1, dims, children, fill))
    if kind == "rle":
        pos, idx, val = [1], [], []
        for sl in slices:
            i = 1
            while i <= size:
                v = sl[i - 1]
                j = i
                while j + 1 <= size and sl[j] == v and type(sl[j]) is type(v):
                    j += 1
                idx.append(j)
                val.append(v)
                i = j + 1
            pos.append(len(idx) + 1)
        return RepeatRLE(size, pos, idx, val)
    raise FormatError(f"unsupported level kind {kind!r}")


SHAPES = {1: [[1], [5], [9]],
          2: [[1, 1], [1, 4], [4, 1], [3, 5]],
          3: [[1, 1, 1], [2, 1, 3], [1, 3, 1], [2, 3, 4]]}


def _specs(rank):
    inner = ("dense", "splist", "sband", "svbl")
    for body in itertools.product(inner, repeat=rank - 1):
        for last in inner + ("rle",):
            yield list(body) + [last] + ([] if last == "rle" else ["elem"])


def _data_cases(n, rng):
    """(label, data, fill) edge cases over n cells; draws only from rng."""
    def draw(pool, p_fill, fill):
        return [fill if rng.random() < p_fill else rng.choice(pool) for _ in range(n)]

    def runs(pool):  # runs of 1-3 cells, each one object repeated
        out = []
        while len(out) < n:
            out += [rng.choice(pool)] * rng.randint(1, 3)
        return out[:n]

    nan = float("nan")
    return [
        ("all fill", [0.0] * n, 0.0),
        ("all stored", [rng.choice([1.0, 2.0, 3.5]) for _ in range(n)], 0.0),
        ("sparse int", draw([1, 2, 7], 0.7, 0), 0),
        ("runs", draw([4, 4, 5], 0.3, 0), 0),
        ("fill one", draw([0, 2], 0.5, 1), 1),
        ("missing fill", draw([1.5, 2.0], 0.6, MISSING), MISSING),
        ("missing under 0.0", draw([MISSING, 1.0], 0.6, 0.0), 0.0),
        ("nan and zeros", draw([nan, -0.0, 0, 1.0], 0.4, 0.0), 0.0),
        ("bool", draw([True], 0.6, False), False),
        # rle runs end at fiber boundaries even where the next fiber starts equal
        ("one value", [5] * n, 0),
        ("one nan object", [nan] * n, 0.0),
        ("distinct nans", [float("nan") for _ in range(n)], 0.0),
        ("nan runs", runs([nan, float("nan"), 1.0]), 0.0),
        ("equal across types", runs([0, 0.0, False, 1, 1.0, True]), 0),
        ("missing runs", runs([MISSING, 1.0, 2.0]), 1.0),
    ]


def _ref_from_dense(name, dims, data, spec, fill):
    kinds = storage.normalize_spec(spec, len(dims))
    root = _build(kinds, 0, dims, [list(data)], fill)
    return Tensor(name, list(dims), root, fill, _infer_dtype(data, fill))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_assembly_matches_per_cell_builder(rank):
    rng = random.Random(20 + rank)
    checked = 0
    for spec in _specs(rank):
        for dims in SHAPES[rank]:
            n = math.prod(dims)
            for label, data, fill in _data_cases(n, rng):
                want = _ref_from_dense("T", dims, data, spec, fill)
                got = from_dense("T", dims, data, spec, fill)
                # repr also tells -0.0 from 0.0, 0 from 0.0 and True from 1
                assert got == want and repr(got) == repr(want), (spec, dims, label, data)
                validate(got)  # assembly builds only levels that validate
                assert storage._infer_dtype(set(map(type, data)), fill) == _infer_dtype(data, fill)
                checked += 1
    assert checked == len(list(_specs(rank))) * len(SHAPES[rank]) * 15


def _intervals(lvl, kind: str, p: int) -> list:
    """The stored index ranges of fiber p, (first, last) pairs read straight
    from the level's arrays."""
    if kind == "sband":
        a, b = lvl.start[p - 1], lvl.stop[p - 1]
        return [] if a > b else [(a, b)]
    window = range(lvl.pos[p - 1] - 1, lvl.pos[p] - 1)
    if kind == "svbl":  # block b holds the ofs[b+1] - ofs[b] indices ending at idx[b]
        return [(lvl.idx[b] - lvl.ofs[b + 1] + lvl.ofs[b] + 1, lvl.idx[b]) for b in window]
    return [(lvl.idx[b], lvl.idx[b]) for b in window]


def _keeps_order(lvl, kind: str, p: int) -> bool:
    """Whether fiber p's ranges ascend strictly within 1..size (nan fails
    every comparison)."""
    prev = 0
    for first, last in _intervals(lvl, kind, p):
        if not prev < first <= last:
            return False
        prev = last
    return prev <= lvl.size


def _outcome(fn):
    try:
        fn()
    except FormatError as ex:
        return type(ex), str(ex)
    return None


@pytest.mark.parametrize("kind", ["splist", "svbl", "rle", "sband"])
def test_validate_names_the_corrupted_fiber(kind):
    """On assembled levels whose index arrays are then corrupted (swapped,
    repeated, shifted past either bound, made nan), `validate` raises the
    level's typed error naming the corrupted fiber, or nothing when the
    corruption keeps that fiber's indices ascending within 1..size."""
    rng = random.Random(len(kind))
    disordered = 0
    for _ in range(300):
        dims = [rng.randint(1, 4), rng.randint(1, 6)]
        data = [rng.choice([0.0, 0.0, 1.0, 2.0, 2.0]) for _ in range(math.prod(dims))]
        t = from_dense("T", dims, data, ["dense", kind], 0.0)
        lvl = t.levels()[1]
        arr = lvl.start if kind == "sband" else lvl.idx
        got = _outcome(lambda: validate(t))
        if not (arr and rng.random() < 0.8):  # left as assembled
            assert got is None, (lvl, got)
            continue
        j = rng.randrange(len(arr))
        old = arr[j]
        arr[j] = rng.choice([old + 1, old - 1, 0, -1, lvl.size + 1, arr[j - 1],
                             math.nan, arr[(j + 1) % len(arr)]])
        if kind == "sband" and arr[j] == arr[j]:  # the band moves, keeping its width
            lvl.stop[j] += arr[j] - old
        p = j + 1 if kind == "sband" else bisect_right(lvl.pos, j + 1)
        got = _outcome(lambda: validate(t))
        runs_short = kind == "rle" and lvl.idx[lvl.pos[p] - 2] != lvl.size
        if _keeps_order(lvl, kind, p) and not runs_short:
            assert got is None, (lvl, got)
            continue
        disordered += 1
        want = RunCoverage if runs_short else lvl.Disorder
        assert got is not None, lvl
        assert got[0] is want, (lvl, got)
        assert re.search(rf"\bfiber {p}\b", got[1]), (lvl, got)
    assert disordered > 100
