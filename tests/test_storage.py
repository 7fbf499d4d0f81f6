import random

import pytest

from coil.storage import (
    Element,
    FormatError,
    OverlappingBlocks,
    PosRegression,
    RepeatRLE,
    RunCoverage,
    SparseList,
    SparseVBL,
    Tensor,
    UnsortedIndices,
    buffer_names,
    from_dense,
    subfiber,
    tensor_buffers,
    to_dense,
    validate,
)

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


def test_subfiber():
    t = from_dense("D", [4], [10, 20, 30, 40], ["dense"], 0)
    assert subfiber(t.root_fiber(), 3) == 30
    s = from_dense("S", [5], [0, 7, 0, 9, 0], ["splist"], 0)
    assert subfiber(s.root_fiber(), 3) == 0  # unstored slot reads as fill
    assert subfiber(s.root_fiber(), 4) == 9
    v = from_dense("V", [7], [0, 1, 2, 0, 0, 3, 0], ["svbl"], 0)
    assert subfiber(v.root_fiber(), 6) == 3
    m = from_dense("M", [2, 3], [1, 2, 3, 4, 5, 6], ["dense", "splist"], 0)
    row2 = subfiber(m.root_fiber(), 2)
    assert subfiber(row2, 3) == 6
    with pytest.raises(FormatError):
        subfiber(t.root_fiber(), 5)


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
