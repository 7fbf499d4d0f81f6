"""The entry points the benchmark's layer tracer wraps by name.

`benchmarks/spans.py` times coil's layers by replacing these functions for
the length of a traced run, and reads their arguments and results to count
work. `pytest benchmarks` is not part of the tier-1 suite, so this test pins
what the tracer relies on: the names, the argument positions it reads and
the shapes of the results, and that a traced run records a span for every
layer a kernel goes through.
"""

import importlib
from pathlib import Path

import coil.parser
from coil import api, writers
from coil.api import InputSpec, OutputSpec, compile_kernel, execute, runtime
from coil.interp import ExecCounters
from coil.storage import Tensor
from coil.unfurl import WriterPlan

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_api_entry_points_keep_their_shapes():
    t = api.from_dense("A", [2, 3], [0.0, 1.5, 0.0, 2.5, 0.0, 0.0], ["dense", "splist"])
    assert isinstance(t, Tensor)
    assert callable(api.to_dense) and api.to_dense(t) == [0.0, 1.5, 0.0, 2.5, 0.0, 0.0]
    compiled = compile_kernel(coil.parser.parse("@V i j y[i] += A[i,j]"),
                              {"A": InputSpec([2, 3], [0.0, 1.5, 0.0, 2.5, 0.0, 0.0],
                                              format=["dense", "splist"])})
    buffers, ws = runtime(compiled)
    run = api.run_program(compiled.lowered, buffers, {}, ws)
    assert isinstance(run.counters, ExecCounters)
    for w in ws.values():
        assert isinstance(w.freeze(), Tensor)


def test_every_writer_class_freezes_to_a_tensor():
    for kind, cls in (("dense", writers.DenseWriter), ("splist", writers.SparseListWriter),
                      ("rle", writers.RLEWriter)):
        plan = WriterPlan("y", [3], 0.0, "float", [kind])
        assert type(plan.writer(plan)) is cls
        assert isinstance(plan.writer(plan).freeze(), Tensor)


def test_traced_run_records_every_layer(monkeypatch, programs):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    text = "@V i j A[i,j] = round($alpha * B[i,j] + $beta * C[i,j])"
    data = [1.0, 1.0, 3.0, 0.0, 0.0, 2.0]
    ins = {name: InputSpec([2, 3], data, format=["dense", "rle"]) for name in "BC"}
    outs = {"A": OutputSpec(dims=[2, 3], format=["dense", "rle"])}
    params = {"alpha": 0.25, "beta": 0.75}
    with tracer.installed():
        stmt = coil.parser.parse(text)  # through the module, as the benchmark calls it
        result = execute(compile_kernel(stmt, ins, outs, params), params)
        want = api.oracle_outputs(stmt, ins, outs, params)
    assert result.dense["A"] == want["A"] == data
    names = {s[0] for s in tracer.spans}
    assert names == {"parser.parse", "storage.from_dense", "storage.to_dense",  # lowered afresh
                     "lower.lower_program", "interp.run_program", "writers.freeze",
                     "oracle.oracle_outputs"}
    assert tracer.counts["writers.entries_out"] == 4  # runs of the frozen output
    assert tracer.counts["storage.cells_scanned"] == 12
    assert tracer.counts["interp.buffer_writes"] == result.counters.buffer_writes
    # the originals are back once the block ends
    for owner, attr, _, _ in spans._entry_points():
        assert not getattr(vars(owner)[attr], "__name__", "").startswith("traced")
