"""Corpus IR snapshot: the no-behaviour-change proof for lowering refactors.

Every corpus kernel x admissible format/protocol assignment
(`corpus_cases(random.Random(7), 1)`, 164 programs) is compiled and run; the
printed IR, the loop count and the execution counters of each must match
`goldens/corpus_ir.txt` byte for byte. The golden was first generated from
the lowering as it stood before the traversal protocol replaced the
hand-written tree walks. It is never regenerated to make a refactor pass: a
change that means to move IR or counters predicts the move, regenerates the
golden in a commit of its own that says why, and lists the per-program
change with `--compare` below. That happened twice: when each stepping loop
began to test a cursor's end once per iteration and a stepper over a single
index lost its loop, and when loop invariants began to move out of loops.
Walk order is observable (fresh names and furl tags are handed out in visit
order), so a traversal change that reorders visits shows up here. The
programs are compared twice: lowered cold, from an emptied program cache,
and then warm, each served from the cache (`cold_and_warm`).

The same programs also pass the static verifier (`ir_verifier.verify`, which
the level-path programs pass too): every variable is bound where it is used,
every buffer access names a runtime buffer, every while loop has a progress
cursor, and every writer hook names a runtime writer, which is initialized
and finalized in pairs, its other hooks between.

    PYTHONPATH=src python tests/test_ir_snapshot.py > tests/goldens/corpus_ir.txt

writes the snapshot of the current tree, and

    PYTHONPATH=src python tests/test_ir_snapshot.py --compare OLD_GOLDEN

prints, for each program whose snapshot differs from OLD_GOLDEN's, its change
in IR lines and in every counter (`exec_ops` is the sum of the scalar
counters, as the benchmark adds them), then the totals over all programs.

    PYTHONPATH=src python tests/test_ir_snapshot.py --codegen

prints the Python that the generated-code backend makes (`codegen._source`
over the `codegen._Facts` of a fresh runtime state) for the 164 snapshot
programs and the 7 programs of the benchmark's spmspv_large and image_blend
jobs (`benchmarks/workloads.py`): each program's source, constants and site
counts. A refactor that means to leave generated code alone shows it by
diffing this output at the parent commit against its own.
"""

import json
import pathlib
import random
import sys

import coil.api
from coil import codegen
from coil.api import InputSpec, compile_kernel, execute, runtime
from coil.expr import Lit, Read, Var
from coil.parser import parse
from coil.tensorio import matrix_market_dense
from coil.target import AssignVar, Block, CallStmt, For, IfChain, Let, While, count_loops

from ir_verifier import verify
from test_acceptance import corpus_cases

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "corpus_ir.txt"
SEED = 7


def snapshot_programs():
    """(header, compiled, params) for every snapshot case, in corpus order."""
    for n, (kernel, inputs, outputs, params, _exact) in enumerate(
            corpus_cases(random.Random(SEED), 1), start=1):
        binds = " ".join(
            f"{name}={'.'.join(spec.format)}"
            + "".join(f"/{m}:{p}" for m, p in sorted(spec.protocols.items()))
            for name, spec in inputs.items())
        header = f"### case {n}: {kernel} | {binds}"
        yield header, compile_kernel(parse(kernel), inputs, outputs, params), params


def render(programs) -> str:
    """Snapshot text of (header, compiled, params) programs: header, loop
    count, counters and printed IR of each."""
    lines = []
    for header, compiled, params in programs:
        counters = execute(compiled, params).counters.as_dict()
        lines.append(header)
        lines.append(f"loops {count_loops(compiled.program)}")
        lines.append(f"counters {json.dumps(counters, sort_keys=True)}")
        lines.append(compiled.ir_text())
    return "\n".join(lines) + "\n"


def render_snapshot() -> str:
    return render(snapshot_programs())


def benchmark_programs(workdir: str):
    """(header, compiled, params) for the programs of the benchmark's
    spmspv_large and image_blend jobs, whose MatrixMarket inputs are
    written under `workdir`."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))
    import workloads

    for make in (workloads.spmspv_jobs, workloads.image_jobs):
        for job in make(SEED, workdir):
            for n, step in enumerate(job.steps, start=1):
                inputs = dict(step.inputs)
                for name, (path, fmt, protocols) in step.mtx.items():
                    dims, data, dtype = matrix_market_dense(path)
                    inputs[name] = InputSpec(dims, data, fmt, 0.0 if dtype == "float" else 0,
                                             dtype, protocols)
                compiled = compile_kernel(parse(step.kernel), inputs, step.outputs, step.params)
                yield f"### {job.label} step {n}: {step.kernel}", compiled, step.params


def render_codegen(programs) -> str:
    """Generated source, constants and site counts of (header, compiled,
    params) programs, each generated for a fresh runtime state."""
    lines = []
    for header, compiled, params in programs:
        buffers, writers = runtime(compiled)
        table = codegen._Facts(buffers, writers, {f"${k}": v for k, v in params.items()})
        src, consts, sites = codegen._source(compiled.program, table)
        lines += [header, src.rstrip("\n"), f"consts {consts!r}", f"sites {sites!r}"]
    return "\n".join(lines) + "\n"


def cold_and_warm(programs):
    """Snapshot texts of `programs()` lowered cold, from an emptied program
    cache, and then warm, every program served from the cache. Both must
    match the golden: the first pins lowering, the second the cache."""
    coil.api.PROGRAMS.clear()
    cold = render(programs())
    warm = list(programs())
    assert all(compiled.lowering == "cached" for _, compiled, _ in warm)
    return cold, render(warm)


def _cases(text: str) -> dict:
    out = {}
    for chunk in text.split("### case ")[1:]:
        out[chunk.split(":", 1)[0]] = chunk
    return out


def test_corpus_ir_snapshot():
    want = GOLDEN.read_text(encoding="utf-8")
    for got in cold_and_warm(snapshot_programs):
        if got != want:
            g, w = _cases(got), _cases(want)
            assert list(g) == list(w), "snapshot case list changed"
            bad = [k for k in w if g[k] != w[k]]
            first = bad[0]
            raise AssertionError(
                f"{len(bad)} of {len(w)} snapshot cases differ; first, case {first}:\n"
                f"--- golden\n{w[first]}\n--- got\n{g[first]}")


def test_compare_lists_each_changed_program():
    def case(n, reads, ir):
        counters = json.dumps({"adds": 1, "buffer_reads": reads,
                               "reads_by_buffer": {"A_idx": reads}})
        return f"### case {n}: K | A=splist\nloops 1\ncounters {counters}\n{ir}\n"

    old = case(1, 4, "nop") + case(2, 6, "let x = 1\nnop")
    new = case(1, 4, "nop") + case(2, 3, "nop")
    assert compare(old, new) == (
        "case 2: K | A=splist\n"
        "  ir_lines 2 -> 1 (-1), exec_ops 7 -> 4 (-3), buffer_reads 6 -> 3 (-3), "
        "reads_by_buffer.A_idx 6 -> 3 (-3)\n"
        "1 of 2 programs changed; totals:\n"
        "  ir_lines 3 -> 2 (-1), exec_ops 12 -> 9 (-3), buffer_reads 10 -> 7 (-3), "
        "reads_by_buffer.A_idx 10 -> 7 (-3)\n")
    assert compare(old, old).endswith("0 of 2 programs changed; totals:\n  equal\n")


def test_verifier_passes_every_snapshot_program():
    nprog = 0
    for header, compiled, params in snapshot_programs():
        buffers, writers = runtime(compiled)
        assert verify(compiled.program, buffers, params, writers) == [], header
        nprog += 1
    assert nprog == 164


def test_verifier_rejects_broken_programs():
    bufs = {"A": None}
    init, fin = CallStmt("C.init"), CallStmt("C.finalize")
    append = CallStmt("C.append_set", (Lit(1), Lit(2.0)))
    branch = IfChain(((Lit(True), Let("x", Lit(1))),))
    cases = [
        (Let("y", Var("x")), ["unbound variable 'x'"]),
        (Block((branch, Let("y", Var("x")))), ["unbound variable 'x'"]),
        (For("i", Lit(1), Var("$n"), AssignVar("i", Read("B", (Var("i"),)))),
         ["unknown buffer 'B'"]),
        (Block((Let("p", Lit(1)), While(Var("p"), AssignVar("p", Lit(False))))),
         ["while loop with cursor None"]),
    ]
    for prog, want in cases:
        assert verify(prog, bufs, {"n": 3}) == want, prog
    hook_cases = [
        (Block((init, append, fin)), []),
        (Block((init, append, fin, fin)), ["C.finalize while 'C' is not open"]),
        (Block((init, CallStmt("D.init"), fin)), ["hook 'D.init' of unknown writer"]),
        (Block((append, init, fin)), ["C.append_set while 'C' is not open"]),
        (Block((init, init, fin)), ["C.init while 'C' is open"]),
        (Block((init, append)), ["writer 'C' never finalized"]),
        (Let("y", Lit(1)), ["writer 'C' never initialized"]),
    ]
    for prog, want in hook_cases:
        assert verify(prog, bufs, {}, {"C": None}) == want, prog


def _measures(chunk: str) -> dict:
    """IR lines and every counter of one snapshot case, flat."""
    lines = chunk.splitlines()
    counters = json.loads(lines[2][len("counters "):])
    out = {"ir_lines": len(lines) - 3,
           "exec_ops": sum(v for v in counters.values() if isinstance(v, int))}
    for k, v in counters.items():
        if isinstance(v, dict):
            out.update({f"{k}.{b}": n for b, n in v.items()})
        else:
            out[k] = v
    return out


def compare(old: str, new: str) -> str:
    """The per-program and total change from snapshot text `old` to `new`."""
    before, after = _cases(old), _cases(new)
    assert list(before) == list(after), "snapshot case list changed"
    total_old, total_new, lines = {}, {}, []
    for k, chunk in after.items():
        a, b = _measures(before[k]), _measures(chunk)
        for m, t in ((a, total_old), (b, total_new)):
            for name, v in m.items():
                t[name] = t.get(name, 0) + v
        if before[k] != chunk:
            lines.append(f"case {k}: {chunk.splitlines()[0].split(': ', 1)[1]}\n"
                         f"  {_deltas(a, b) or 'printed IR changed, counts equal'}")
    lines.append(f"{len(lines)} of {len(after)} programs changed; totals:\n"
                 f"  {_deltas(total_old, total_new) or 'equal'}")
    return "\n".join(lines) + "\n"


def _deltas(a: dict, b: dict) -> str:
    return ", ".join(f"{name} {a.get(name, 0)} -> {b.get(name, 0)} "
                     f"({b.get(name, 0) - a.get(name, 0):+d})"
                     for name in sorted(set(a) | set(b), key=_order)
                     if a.get(name, 0) != b.get(name, 0))


def _order(name: str):
    """IR lines, then exec_ops, then the counters by name."""
    return ({"ir_lines": 0, "exec_ops": 1}.get(name, 2), name)


if __name__ == "__main__":
    import itertools
    import tempfile

    if sys.argv[1:2] == ["--compare"]:
        old_text = pathlib.Path(sys.argv[2]).read_text(encoding="utf-8")
        sys.stdout.write(compare(old_text, render_snapshot()))
    elif sys.argv[1:2] == ["--codegen"]:
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(render_codegen(
                itertools.chain(snapshot_programs(), benchmark_programs(tmp))))
    else:
        sys.stdout.write(render_snapshot())
