"""The facts recorded at assembly are the facts a full scan reads.

Generated code is guarded by each runtime buffer's value facts (the set of
value types, and bounds of int values). Assembly records them for the level
arrays it builds (`Level.facts`) from what it knows of them, so no run scans
the arrays. Here every recorded fact must equal `scan_facts` over the array,
in value and in type, across the oracle corpus's inputs, every level kind and
edge-case payloads; and the generated source must not change by a byte when
the guard reads recorded facts instead of scanning, for the snapshot's 164
corpus programs and the benchmark's large programs.
"""

import importlib
import itertools
import random
from pathlib import Path

import pytest

from coil import codegen
from coil.api import InputSpec, _format, compile_kernel, runtime
from coil.interp import Buf, scan_facts
from coil.levels import KINDS
from coil.parser import parse
from coil.storage import from_buffers, from_dense, tensor_buffers
from coil.tensorio import matrix_market_dense
from coil.values import INT_MAX, INT_MIN, MISSING

from test_acceptance import corpus_cases
from test_ir_snapshot import snapshot_programs


def same_facts(a, b) -> bool:
    """Equal facts, each part of one type: 1 and True are different bounds."""
    (ts, iv), (us, jv) = a, b
    return (type(ts) is type(us) and ts == us and type(iv) is type(jv) and iv == jv
            and all(type(x) is type(y) for x, y in zip(iv or (), jv or ())))


def check_recorded(t):
    """Every fact recorded on the levels of tensor `t` equals a scan; returns
    the (kind, field) pairs recorded."""
    seen = set()
    for lvl in t.levels():
        assert set(lvl.known) <= set(lvl.buffers), lvl.kind
        for field, facts in lvl.known.items():
            want = scan_facts(getattr(lvl, field))
            assert same_facts(facts, want), (t.name, lvl.kind, field, facts, want)
            seen.add((lvl.kind, field))
    return seen


def assembled(spec: InputSpec, name="A"):
    return from_dense(name, spec.dims, spec.data, _format(spec.format, len(spec.dims)),
                      spec.fill, spec.dtype)


# every buffer of every mode level, and the rle values, which cover the payload here
ALWAYS = {("splist", "pos"), ("splist", "idx"), ("sband", "start"), ("sband", "stop"),
          ("sband", "ofs"), ("svbl", "pos"), ("svbl", "idx"), ("svbl", "ofs"),
          ("rle", "pos"), ("rle", "idx"), ("rle", "val")}


def test_corpus_inputs_record_scanned_facts():
    seen = set()
    for _, inputs, _, _, _ in corpus_cases(random.Random(5), 1):
        for name, spec in inputs.items():
            seen |= check_recorded(assembled(spec, name))
    assert seen == ALWAYS
    assert {kind for kind, _ in seen} | {"dense", "elem"} == {c.kind for c in KINDS.values()}


def _payloads(rng, n):
    """(label, data, fill, dtype) edge cases over n cells."""
    big = [INT_MAX, INT_MIN, INT_MAX - 1, INT_MIN + 1]
    yield "float", [rng.choice([0.0, 0.0, rng.random()]) for _ in range(n)], 0.0, None
    yield "all fill", [0.0] * n, 0.0, None
    yield "all stored", [rng.random() + 1 for _ in range(n)], 0.0, None
    yield "missing fill", [rng.choice([MISSING, MISSING, 1.5]) for _ in range(n)], MISSING, None
    yield "missing cells", [rng.choice([MISSING, 0.0, 2.5]) for _ in range(n)], 0.0, None
    yield "bool", [rng.random() < 0.3 for _ in range(n)], False, "bool"
    yield "ints near 2^63", [rng.choice([0, 0, *big]) for _ in range(n)], 0, "int"
    yield "ints, runs", [rng.choice([0, 0, 0, 7]) for _ in range(n)], 0, None
    yield "mixed", [rng.choice([0, 0.0, 1, 1.5, True]) for _ in range(n)], 0, None
    yield "nan", [rng.choice([0.0, float("nan")]) for _ in range(n)], 0.0, None
    # float zeros equal the int fill: stored nowhere below a sparse level
    yield "fill of another type", [0.0] + [rng.choice([0, 3]) for _ in range(n - 1)], 0, None


MODES = ("dense", "splist", "sband", "svbl")
FORMATS = ([[k] for k in MODES + ("rle",)]
           + [[a, b] for a, b in itertools.product(MODES, MODES + ("rle",))])


@pytest.mark.parametrize("fmt", FORMATS, ids=".".join)
def test_edge_payloads_record_scanned_facts(fmt):
    rng = random.Random(len(fmt) * 31 + sum(map(len, fmt)))
    dims = [5] if len(fmt) == 1 else [4, 6]
    n = 5 if len(fmt) == 1 else 24
    for label, data, fill, dtype in _payloads(rng, n):
        if len(fmt) == 2 and label in ("float", "fill of another type"):
            data[:6] = [data[0]] * 6  # an empty fiber among stored ones
        t = from_dense("A", dims, data, fmt, fill, dtype)
        check_recorded(t)
        buffers = tensor_buffers(t)
        for name, buf in buffers.items():  # recorded or scanned, as the guard reads them
            want = scan_facts(buf.data)
            assert same_facts(buf.initial_facts(), want), (fmt, label, name)


def test_unrecorded_facts_are_scanned_once_and_kept():
    """A level built from buffers records nothing; its facts are scanned on
    first use and kept on the level."""
    t = from_buffers("A", [4], ["splist", "elem"], {"A_pos": [1, 3], "A_idx": [2, 4],
                                            "A_val": [1.5, 2.5]}, 0.0, "float")
    lvl = t.levels()[0]
    assert lvl.known == {}
    bufs = tensor_buffers(t)
    got = bufs["A_idx"].initial_facts()
    assert same_facts(got, (frozenset({int}), (2, 4)))
    assert lvl.known == {"idx": got}
    assert tensor_buffers(t)["A_idx"].initial_facts() is got
    assert Buf("v", [1, 2]).initial_facts() == (frozenset({int}), (1, 2))


def _sources(compiled, params):
    """Generated source and key of a compiled program: with the facts as
    recorded, and with every buffer scanned."""
    out = []
    for scanned in (False, True):
        buffers, writers = runtime(compiled)
        if scanned:
            buffers = {k: Buf(k, b.data, b.dtype, readonly=b.readonly)
                       for k, b in buffers.items()}
        mparams = {f"${k}": v for k, v in (params or {}).items()}
        table = codegen._Facts(buffers, writers, mparams)
        out.append((table.key, codegen._source(compiled.program, table)[0]))
    return out


def assert_same_source(compiled, params):
    (key, src), (scan_key, scan_src) = _sources(compiled, params)
    assert len(key) == len(scan_key) and all(map(codegen._same, key, scan_key))
    assert src == scan_src


def test_corpus_programs_generate_the_same_source():
    n = 0
    for _, compiled, params in snapshot_programs():
        assert_same_source(compiled, params)
        n += 1
    assert n == 164


def test_benchmark_programs_generate_the_same_source(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    workloads = importlib.import_module("workloads")
    steps = [s for make in (workloads.spmspv_jobs, workloads.image_jobs)
             for job in make(5, str(tmp_path)) for s in job.steps]
    assert len(steps) == 7
    for step in steps:
        inputs = dict(step.inputs)
        for name, (path, fmt, protocols) in step.mtx.items():
            dims, data, dtype = matrix_market_dense(path)
            inputs[name] = InputSpec(dims, data, fmt, 0.0 if dtype == "float" else 0,
                                     dtype, protocols)
        compiled = compile_kernel(parse(step.kernel), inputs, step.outputs, step.params)
        assert_same_source(compiled, step.params)
