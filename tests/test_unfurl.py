import random

import pytest

from coil.cin import Cursor
from coil.expr import Lit, Var, extent
from coil.interp import Machine
from coil.looplets import materialize
from coil.storage import from_dense, tensor_buffers
from coil.unfurl import (
    BoundTensor,
    CompileError,
    _FreshNames,
    mask_looplet,
    unfurl,
    unfurl_modified,
)
from coil.values import MISSING

FIG_A = [0.0, 1.9, 0.0, 3.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0, 0.0]
FIG_B = [0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.2, 0.0, 0.0, 0.0]


def bound(tensor):
    return BoundTensor(tensor.name, tensor.dims, tensor.fill, tensor.dtype,
                       tensor.format_spec(), tensor=tensor)


def mat_unfurl(tensor, proto, pos=1, depth=1, target=None, modifiers=None,
               dynamic=False):
    bt = bound(tensor)
    if dynamic:
        bt = BoundTensor(tensor.name, tensor.dims, tensor.fill, tensor.dtype,
                         tensor.format_spec(), tensor=None)
        cur = Cursor(tensor.name, depth, Var("fpos"))
    else:
        cur = Cursor(tensor.name, depth, Lit(pos))
    names = _FreshNames()
    if modifiers:
        loop = unfurl_modified(bt, cur, proto, names, modifiers)
    else:
        loop = unfurl(bt, cur, proto, names)
    m = Machine(tensor_buffers(tensor), params={"fpos": pos} if dynamic else None)
    size = tensor.dims[depth - 1]
    return materialize(loop, target or extent(1, size), m)


def test_sparse_list_walk_fig_row():
    t = from_dense("A", [11], FIG_A, ["splist"], 0.0)
    assert mat_unfurl(t, "walk") == FIG_A


def test_band_walk_fig_row():
    t = from_dense("B", [11], FIG_B, ["sband"], 0.0)
    assert mat_unfurl(t, "walk") == FIG_B


def test_empty_sparse_list_is_all_fill():
    t = from_dense("Z", [7], [0.0] * 7, ["splist"], 0.0)
    assert mat_unfurl(t, "walk") == [0.0] * 7
    assert mat_unfurl(t, "walk", dynamic=True) == [0.0] * 7


FORMAT_PROTOCOLS = [
    ("dense", "walk"), ("dense", "follow"), ("dense", "followzero"),
    ("splist", "walk"), ("splist", "gallop"), ("splist", "follow"),
    ("sband", "walk"), ("sband", "follow"),
    ("svbl", "walk"),
    ("rle", "walk"), ("rle", "follow"),
]


def run_unfurl_soundness(cases_per_pair: int, seed: int = 0) -> int:
    """Master property: materialize(unfurl(f, p), 1:size) equals the dense
    slice of the fiber, for static and dynamic fiber positions."""
    rng = random.Random(seed)
    checked = 0
    for fmt, proto in FORMAT_PROTOCOLS:
        for k in range(cases_per_pair):
            n = rng.randint(1, 16)
            data = [rng.choice([0.0, 0.0, 0.0, 1.5, 2.5, 3.5]) for _ in range(n)]
            t = from_dense("t", [n], data, [fmt], 0.0)
            assert mat_unfurl(t, proto) == data, (fmt, proto, data)
            assert mat_unfurl(t, proto, dynamic=True) == data, (fmt, proto, data)
            checked += 2
    return checked


def test_unfurl_soundness_randomized():
    assert run_unfurl_soundness(30, seed=1) >= 600


def test_unfurl_soundness_matrix_inner_fibers():
    rng = random.Random(4)
    for fmt in ("splist", "sband", "svbl", "rle", "dense"):
        n, m = 4, 9
        data = [rng.choice([0.0, 0.0, 1.0, 2.0]) for _ in range(n * m)]
        t = from_dense("M", [n, m], data, ["dense", fmt], 0.0)
        for row in range(1, n + 1):
            want = data[(row - 1) * m: row * m]
            got = mat_unfurl(t, "walk", pos=row, depth=2, dynamic=True)
            assert got == want, (fmt, row)


def test_protocol_equivalence():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 14)
        data = [rng.choice([0.0, 0.0, 4.0, 7.0]) for _ in range(n)]
        t = from_dense("t", [n], data, ["splist"], 0.0)
        walk = mat_unfurl(t, "walk")
        assert mat_unfurl(t, "gallop") == walk
        assert mat_unfurl(t, "follow") == walk


def test_unsupported_pairs_rejected():
    names = _FreshNames()
    t = from_dense("R", [4], [1.0, 1.0, 2.0, 2.0], ["rle"], 0.0)
    with pytest.raises(CompileError):
        unfurl(bound(t), Cursor("R", 1, Lit(1)), "gallop", names)
    d = from_dense("D", [4], [1.0, 2.0, 3.0, 4.0], ["dense"], 0.0)
    with pytest.raises(CompileError):
        unfurl(bound(d), Cursor("D", 1, Lit(1)), "gallop", names)
    v = from_dense("V", [4], [1.0, 2.0, 0.0, 4.0], ["svbl"], 0.0)
    with pytest.raises(CompileError):
        unfurl(bound(v), Cursor("V", 1, Lit(1)), "follow", names)


# -- index modifiers -------------------------------------------------------------


def test_window_slice():
    t = from_dense("A", [5], [10.0, 20.0, 30.0, 40.0, 50.0], ["dense"], 0.0)
    got = mat_unfurl(t, "walk", target=extent(1, 3),
                     modifiers=[("window", (Lit(3), Lit(5)))])
    assert got == [30.0, 40.0, 50.0]


def test_window_bounds_checked():
    t = from_dense("A", [5], [10.0] * 5, ["dense"], 0.0)
    with pytest.raises(CompileError):
        mat_unfurl(t, "walk", modifiers=[("window", (Lit(0), Lit(5)))])
    with pytest.raises(CompileError):
        mat_unfurl(t, "walk", modifiers=[("window", (Lit(2), Lit(6)))])


def test_permit_out_of_bounds_is_missing():
    t = from_dense("A", [2], [10.0, 20.0], ["dense"], 0.0)
    got = mat_unfurl(t, "walk", target=extent(1, 4), modifiers=[("permit", ())])
    assert got == [10.0, 20.0, MISSING, MISSING]


def test_offset_shifts_dimension():
    t = from_dense("A", [3], [1.0, 2.0, 3.0], ["dense"], 0.0)
    got = mat_unfurl(t, "walk", target=extent(3, 5), modifiers=[("offset", (Lit(2),))])
    assert got == [1.0, 2.0, 3.0]


def run_modifier_laws(cases_per_format: int, seed: int = 2) -> int:
    """Offset(0), Window(1,size), and in-bounds Permit are identities; shifted
    windows and permits materialize the expected slices."""
    rng = random.Random(seed)
    checked = 0
    for fmt in ("dense", "splist", "sband", "svbl", "rle"):
        for _ in range(cases_per_format):
            n = rng.randint(1, 12)
            data = [rng.choice([0.0, 0.0, 3.0, 4.0]) for _ in range(n)]
            t = from_dense("t", [n], data, [fmt], 0.0)
            assert mat_unfurl(t, "walk", modifiers=[("offset", (Lit(0),))]) == data
            assert mat_unfurl(t, "walk", modifiers=[("window", (Lit(1), Lit(n)))]) == data
            assert mat_unfurl(t, "walk", modifiers=[("permit", ())]) == data
            d = rng.randint(-3, 3)
            got = mat_unfurl(t, "walk", target=extent(1 + d, n + d),
                             modifiers=[("offset", (Lit(d),))])
            assert got == data
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            got = mat_unfurl(t, "walk", target=extent(1, hi - lo + 1),
                             modifiers=[("window", (Lit(lo), Lit(hi)))])
            assert got == data[lo - 1:hi]
            over = rng.randint(0, 4)
            got = mat_unfurl(t, "walk", target=extent(1, n + over),
                             modifiers=[("permit", ())])
            assert got == data + [MISSING] * over
            checked += 6
    return checked


def test_modifier_laws():
    assert run_modifier_laws(10) == 300


def test_permit_composes_with_offset():
    t = from_dense("B", [1], [3.0], ["dense"], 0.0)
    got = mat_unfurl(t, "walk", target=extent(1, 3),
                     modifiers=[("offset", (Lit(2),)), ("permit", ())])
    assert got == [MISSING, MISSING, 3.0]


def test_permit_must_be_outermost():
    t = from_dense("A", [3], [1.0, 2.0, 3.0], ["dense"], 0.0)
    with pytest.raises(CompileError):
        mat_unfurl(t, "walk", modifiers=[("permit", ()), ("offset", (Lit(1),))])


# -- mask looplet -----------------------------------------------------------------


def mask_values(target, lo, hi):
    m = Machine({})
    return materialize(mask_looplet(Lit(target)), extent(lo, hi), m)


def test_mask_true_exactly_at_target():
    assert mask_values(3, 1, 5) == [False, False, True, False, False]
    assert mask_values(1, 1, 5) == [True, False, False, False, False]
    assert mask_values(9, 1, 5) == [False] * 5
