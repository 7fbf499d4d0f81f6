"""The columnar MatrixMarket reader against the frozen line-by-line reader
(`mtx_reference.py`): same dims, entries with their value types and dtype,
or the same error message, on seeded files read in blocks of a few bytes, so
that lines straddle block boundaries and duplicates fall within and across
blocks."""

import random
import tracemalloc

import pytest

import mtx_reference
from coil import tensorio
from coil.tensorio import TensorIOError

CASES = 300


def _value(rng, field):
    if field == "integer":
        return str(rng.randint(-9, 9))
    return rng.choice([repr(rng.uniform(-10, 10)), str(rng.randint(-5, 5)), "1e3", "-0.0",
                       "nan", "inf", "-2.5E-3"])


def _mtx_text(rng) -> str:
    """A small coordinate file: any field and symmetry, duplicates, and now
    and then a comment, blank line, CRLF, tab, trailing space, missing final
    newline, ragged line, extra tokens, bad token, out-of-bounds coordinate
    or wrong entry count."""
    field = rng.choice(["real", "integer", "pattern"])
    symmetry = rng.choice(["general", "general", "symmetric"])
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    lines, entries = [], 0
    for _ in range(rng.randint(0, 40)):
        i, j = rng.randint(1, nrows), rng.randint(1, ncols)
        if symmetry == "symmetric" and i < j and rng.random() < 0.9:
            i, j = j, i
        toks = [str(i), str(j)] + ([] if field == "pattern" else [_value(rng, field)])
        roll = rng.random()
        if roll < 0.01:
            toks.pop()                                      # ragged line
        elif roll < 0.02:
            toks += ["1"] * rng.choice([1, 3, 4])            # extra tokens
        elif roll < 0.03:
            toks[rng.randrange(len(toks))] = rng.choice(["x", "1.5", ";", "%", "1;"])
        elif roll < 0.04:
            toks[rng.randrange(2)] = rng.choice(["0", "-1", str(max(nrows, ncols) + 1)])
        sep = rng.choice([" ", " ", " ", "  ", "\t"])
        lines.append(sep.join(toks) + rng.choice(["", "", "", " ", "\t"]))
        entries += 1
        roll = rng.random()
        if roll < 0.02:
            lines.append(rng.choice(["% a comment", "%1 2 3", "% 1 2"]))
        elif roll < 0.04:
            lines.append(rng.choice(["", "   "]))
    nnz = entries + (rng.choice([-1, 1]) if rng.random() < 0.05 else 0)
    eol = "\r\n" if rng.random() < 0.2 else "\n"
    text = eol.join([f"%%MatrixMarket matrix coordinate {field} {symmetry}",
                     f"{nrows} {ncols} {nnz}"] + lines)
    return text if rng.random() < 0.2 else text + eol


def _outcome(read, path):
    """What a reader makes of `path`: its result with every value's type
    and repr (so nan matches nan and -0.0 differs from 0.0), or its error."""
    try:
        dims, payload, dtype = read(path)
    except TensorIOError as ex:
        return "error", str(ex)
    cells = [(*t[:-1], type(t[-1]).__name__, repr(t[-1])) if isinstance(t, tuple)
             else (type(t).__name__, repr(t)) for t in payload]
    return dims, cells, dtype


@pytest.mark.parametrize("chunk,min_lines", [(5, 1), (16, 1), (64, 1), (256, 16), (1 << 16, 16)])
def test_columnar_reader_matches_reference(tmp_path, monkeypatch, chunk, min_lines):
    monkeypatch.setattr(tensorio, "_CHUNK", chunk)
    monkeypatch.setattr(tensorio, "_MIN_COLUMN_LINES", min_lines)
    columns = tensorio._columns
    blocks = {"columns": 0, "lines": 0}

    def counted(*args):
        n = columns(*args)
        blocks["lines" if n is None else "columns"] += 1
        return n

    monkeypatch.setattr(tensorio, "_columns", counted)
    rng = random.Random(1500 + chunk + min_lines)
    kinds = set()
    for case in range(CASES):
        path = tmp_path / f"m{case}.mtx"
        path.write_bytes(_mtx_text(rng).encode())
        for read, want in ((tensorio.read_matrix_market, mtx_reference.read_matrix_market),
                           (tensorio.matrix_market_dense, mtx_reference.matrix_market_dense)):
            got, ref = _outcome(read, str(path)), _outcome(want, str(path))
            assert got == ref, (case, path.read_bytes())
        if ref[0] == "error":
            kinds.add(ref[1].split(": ", 1)[1].split(" ", 1)[0])
        else:
            nnz = int(path.read_text().splitlines()[1].split()[2])
            kinds.add("summed" if len(mtx_reference._read_entries(str(path))[1]) < nnz
                      else "read")
    # the seeded files reach every error, duplicates and both block paths
    assert kinds == {"malformed", "coordinate", "expected", "summed", "read"}, kinds
    assert blocks["columns"] and blocks["lines"], blocks


def test_duplicates_sum_in_file_order_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(tensorio, "_CHUNK", 8)
    monkeypatch.setattr(tensorio, "_MIN_COLUMN_LINES", 1)
    path = tmp_path / "d.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 3\n"
                    "1 1 1.0\n1 1 1e16\n1 1 -1e16\n")
    assert tensorio.read_matrix_market(str(path)) == ([1, 1], [(1, 1, 0.0)], "float")
    assert mtx_reference.read_matrix_market(str(path)) == ([1, 1], [(1, 1, 0.0)], "float")


def _peak(read, path) -> int:
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_read_peak_memory_within_reference(tmp_path):
    """Reading in bounded blocks keeps `matrix_market_dense`'s tracemalloc
    peak on a 400x400 file with 16,000 entries within the line-by-line
    reader's."""
    rng = random.Random(15)
    n = 400
    path = tmp_path / "A.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real general\n{n} {n} 16000\n")
        fh.writelines(f"{k // n + 1} {k % n + 1} {rng.random()!r}\n"
                      for k in sorted(rng.sample(range(n * n), 16000)))
    assert tensorio.matrix_market_dense(str(path)) == mtx_reference.matrix_market_dense(str(path))
    assert _peak(tensorio.matrix_market_dense, str(path)) <= _peak(
        mtx_reference.matrix_market_dense, str(path))
