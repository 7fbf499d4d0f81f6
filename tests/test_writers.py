import pytest

from coil.interp import InterpError
from coil.storage import to_dense
from coil.unfurl import WriterPlan


def test_dense_writer_single_write():
    plan = WriterPlan("y", [5], 0.0, "float", ["dense", "elem"])
    w = plan.writer(plan)
    w.init()
    w.buffers["y_val"].set(2, 5.0)
    assert to_dense(w.freeze()) == [0.0, 5.0, 0.0, 0.0, 0.0]


def test_sparse_list_writer_ascending():
    plan = WriterPlan("y", [8], 0.0, "float", ["splist", "elem"])
    w = plan.writer(plan)
    w.append([1], "set", 4.0)
    w.append([7], "set", 9.0)
    w.finalize()
    t = w.freeze()
    assert t.root.idx == [1, 7]
    assert t.root.child.val == [4.0, 9.0]
    assert to_dense(t) == [4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.0, 0.0]


def test_sparse_list_writer_accumulates_same_index():
    plan = WriterPlan("y", [4], 0.0, "float", ["splist", "elem"])
    w = plan.writer(plan)
    w.append([2], "add", 1.5)
    w.append([2], "add", 2.0)
    w.append([3], "add", 1.0)
    assert to_dense(w.freeze()) == [0.0, 3.5, 1.0, 0.0]


def test_sparse_list_writer_rejects_non_ascending():
    plan = WriterPlan("y", [8], 0.0, "float", ["splist", "elem"])
    w = plan.writer(plan)
    w.append([5], "set", 1.0)
    with pytest.raises(InterpError):
        w.append([2], "set", 2.0)


def test_sparse_list_writer_matrix_rows():
    plan = WriterPlan("y", [3, 4], 0.0, "float", ["dense", "splist", "elem"])
    w = plan.writer(plan)
    w.append([1, 2], "set", 5.0)
    w.append([3, 1], "set", 7.0)  # row 2 skipped entirely
    assert to_dense(w.freeze()) == [0.0, 5.0, 0.0, 0.0,
                                    0.0, 0.0, 0.0, 0.0,
                                    7.0, 0.0, 0.0, 0.0]


def test_rle_writer_coalesces_runs():
    plan = WriterPlan("A", [4], 0, "int", ["rle"])
    w = plan.writer(plan)
    for i, v in enumerate([3, 3, 3, 8], start=1):
        w.append([i], "set", v)
    t = w.freeze()
    assert t.root.idx == [3, 4]
    assert t.root.val == [3, 8]


def test_rle_writer_pads_gaps_with_fill():
    plan = WriterPlan("A", [6], 0, "int", ["rle"])
    w = plan.writer(plan)
    w.append([2], "set", 5)
    w.append([5], "set", 5)
    assert to_dense(w.freeze()) == [0, 5, 0, 0, 5, 0]


def test_rle_writer_run_set():
    plan = WriterPlan("A", [10], 0, "int", ["rle"])
    w = plan.writer(plan)
    w.run_set([], 1, 4, 7)
    w.run_set([], 5, 8, 7)
    w.run_set([], 10, 10, 2)
    t = w.freeze()
    assert t.root.idx == [8, 9, 10]
    assert t.root.val == [7, 0, 2]


def test_rle_writer_accumulating_update_splits_run():
    plan = WriterPlan("A", [5], 0, "int", ["rle"])
    w = plan.writer(plan)
    w.run_set([], 1, 3, 4)
    w.append([3], "add", 2)  # last index of the run updates in place
    assert to_dense(w.freeze()) == [4, 4, 6, 0, 0]


def test_rle_writer_rejects_non_ascending():
    plan = WriterPlan("A", [5], 0, "int", ["rle"])
    w = plan.writer(plan)
    w.append([4], "set", 1)
    with pytest.raises(InterpError):
        w.append([2], "set", 1)


def test_writer_plan_rejects_sparse_outer():
    with pytest.raises(Exception):
        WriterPlan("y", [2, 2], 0.0, "float", ["splist", "dense", "elem"])


def test_rle_writer_empty_run_is_a_no_op():
    """The empty run lo = hi + 1, which a walk emits before adjacent stored
    entries, writes nothing and counts no write; a run that is more than
    empty is still out of bounds."""
    plan = WriterPlan("A", [5], 0, "int", ["rle"])
    w = plan.writer(plan)
    assert w.run_set([], 1, 0, 7) == 0
    assert w.run_set([], 1, 2, 7) == 1
    assert w.run_set([], 3, 2, 9) == 0
    assert w.run_set([], 3, 5, 4) == 1
    assert w.run_set([], 6, 5, 9) == 0
    with pytest.raises(InterpError, match="run write 4:2 out of bounds"):
        w.run_set([], 4, 2, 1)
    assert to_dense(w.freeze()) == [7, 7, 4, 4, 4]
