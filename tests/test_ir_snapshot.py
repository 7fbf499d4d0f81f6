"""Corpus IR snapshot: the no-behaviour-change proof for lowering refactors.

Every corpus kernel x admissible format/protocol assignment
(`corpus_cases(random.Random(7), 1)`, 164 programs) is compiled and run; the
printed IR, the loop count and the execution counters of each must match
`goldens/corpus_ir.txt` byte for byte. The golden was generated once, from
the lowering as it stood before the traversal protocol replaced the
hand-written tree walks; it is never regenerated to make a change pass.
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

writes the snapshot of the current tree.
"""

import json
import pathlib
import random

import coil.api
from coil.api import compile_kernel, execute, runtime
from coil.expr import Lit, Read, Var
from coil.parser import parse
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


if __name__ == "__main__":
    import sys

    sys.stdout.write(render_snapshot())
