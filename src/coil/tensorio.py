"""Tensor file ingestion: MatrixMarket (.mtx) and a whitespace dense format.

Dense text format: first line `dims: d1 d2 ...`, then row-major values.
MatrixMarket support covers coordinate and array forms, real/integer/pattern
fields, general/symmetric symmetry; duplicate coordinates are summed in file
order.

A coordinate body is read in blocks of about 64 KiB of whole lines, each
parsed in columns: one tokenization, `int`/`float` mapped over strided
slices, one `min`/`max` per coordinate column for the bounds, one
comprehension for the row-major offsets. A block that is short, symmetric or
fails any check (a comment or blank line, a ragged line, a bad token, an
out-of-bounds coordinate) is read line by line instead, which raises the
message naming the offending line. Beyond the entries themselves, a read
holds one block's tokens at a time.

`matrix_market_dense` scatters the entries into a `storage.Scattered`
payload, which records the cells it wrote. Assembly builds every sparse
level from the payload's stored cells (see `storage`): under a fill equal
to the payload's zero (0, 0.0 or -0.0) they are read from that record and
the payload is never iterated; any other fill scans the payload once.
"""

from __future__ import annotations

from typing import List, Tuple

from .storage import scattered
from .values import Value


class TensorIOError(ValueError):
    pass


class reading:
    """`path` opened as UTF-8 text, as a context manager; a file that cannot
    be opened or decoded raises `error` naming it. (A class, not a generator
    context manager: it is entered once per tensor file read.)"""

    __slots__ = ("path", "error", "fh")

    def __init__(self, path: str, error=TensorIOError):
        self.path, self.error = path, error

    def __enter__(self):
        try:
            self.fh = open(self.path, "r", encoding="utf-8")
        except OSError as ex:
            raise self._failed(ex) from None
        return self.fh

    def __exit__(self, kind, ex, tb):
        self.fh.close()
        if isinstance(ex, (OSError, UnicodeDecodeError)):
            raise self._failed(ex) from None

    def _failed(self, ex):
        return self.error(f"cannot read {self.path}: {getattr(ex, 'strerror', None) or ex}")


def read_matrix_market(path: str) -> Tuple[List[int], List[Tuple], str]:
    """Returns (dims, triples sorted row-major, value dtype).

    A MatrixMarket file holds a matrix, so dims are always [rows, columns]
    and triples always (i, j, v), with 1-based coordinates; symmetric inputs
    are expanded to general, pattern entries read as 1.
    """
    dims, keys, vals, dtype = _read_entries(path)
    ncols = dims[1]
    return dims, [(k // ncols + 1, k % ncols + 1, v) for k, v in sorted(zip(keys, vals))], dtype


def matrix_market_dense(path: str) -> Tuple[List[int], list, str]:
    """Scatter a MatrixMarket file into a row-major dense payload, a
    `storage.Scattered` list of zeros of the field's type that records the
    cells the file wrote, so that binding it to a sparse format with a zero
    fill assembles from those cells and scans no other."""
    dims, keys, vals, dtype = _read_entries(path)
    zero = 0.0 if dtype == "float" else 0
    return dims, scattered(dims[0] * dims[1], zero, keys, vals, {type(zero)}), dtype


# A coordinate body is read in blocks of about this many characters, each cut
# at its last newline, so a read holds one block's tokens at a time.
_CHUNK = 1 << 16
# A block of fewer lines than this is read line by line, which is faster:
# reading in columns costs a few microseconds more per block.
_MIN_COLUMN_LINES = 16


def _read_entries(path: str) -> Tuple[List[int], List[int], List[Value], str]:
    """Returns (dims, row-major cell offsets, their values, value dtype); each
    offset appears once."""
    with reading(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise TensorIOError(f"{path}: missing MatrixMarket header")
        parts = header.lower().split()  # the header's keywords are case-insensitive
        if len(parts) < 5 or parts[1] != "matrix":
            raise TensorIOError(f"{path}: malformed header {header.strip()!r}")
        layout, field, symmetry = parts[2], parts[3], parts[4]
        if layout not in ("coordinate", "array"):
            raise TensorIOError(f"{path}: unsupported layout {layout!r}")
        if field not in ("real", "integer", "pattern"):
            raise TensorIOError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise TensorIOError(f"{path}: unsupported symmetry {symmetry!r}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        sizes = line.split()
        if layout == "coordinate":
            if len(sizes) != 3:
                raise TensorIOError(f"{path}: bad size line {line.strip()!r}")
            nrows, ncols, nnz = (int(x) for x in sizes)
        else:
            if len(sizes) != 2:
                raise TensorIOError(f"{path}: bad size line {line.strip()!r}")
            nrows, ncols = (int(x) for x in sizes)
            nnz = nrows * ncols

        keys: List[int] = []
        vals: List[Value] = []
        conv = int if field == "integer" else float
        pattern = field == "pattern"
        symmetric = symmetry == "symmetric"
        if layout == "coordinate":
            shape = (path, nrows, ncols, pattern, conv)
            count = 0
            for block in _blocks(fh):
                n = None if symmetric else _columns(block, shape, keys, vals)
                count += _lines(block, shape, symmetric, keys, vals) if n is None else n
            if count != nnz:
                raise TensorIOError(f"{path}: expected {nnz} entries, found {count}")
        else:
            try:
                body = [1 if pattern else conv(tok) for line in fh for tok in line.split()]
            except ValueError as ex:
                raise TensorIOError(f"{path}: malformed array value: {ex}") from None
            if len(body) != (nrows * (nrows + 1) // 2 if symmetric else nnz):
                raise TensorIOError(f"{path}: wrong number of array values")
            pos = 0
            for j in range(1, ncols + 1):  # array layout is column-major
                for i in range(j if symmetric else 1, nrows + 1):
                    keys.append((i - 1) * ncols + j - 1)
                    vals.append(body[pos])
                    if symmetric and i != j:
                        if i > ncols:
                            raise TensorIOError(f"{path}: coordinate ({j},{i}) out of bounds")
                        keys.append((j - 1) * ncols + i - 1)
                        vals.append(body[pos])
                    pos += 1

    if len(set(keys)) != len(keys):  # duplicates are summed in file order
        folded = {}
        get = folded.get
        for k, v in zip(keys, vals):
            prev = get(k)
            folded[k] = v if prev is None else prev + v
        keys, vals = list(folded), list(folded.values())
    return [nrows, ncols], keys, vals, "float" if field == "real" else "int"


def _blocks(fh):
    """The rest of `fh` in blocks of whole lines of about `_CHUNK` characters;
    a last line without a newline gets one."""
    tail = ""
    while True:
        block = tail + fh.read(_CHUNK)
        if len(block) - len(tail) < _CHUNK:  # a short read is the end of the file
            if block:
                yield block if block.endswith("\n") else block + "\n"
            return
        cut = block.rfind("\n") + 1
        if cut:
            yield block[:cut]
        tail = block[cut:]


def _columns(block: str, shape, keys: list, vals: list):
    """Append a block of general coordinate lines to `keys` and `vals`
    column by column and return its line count; None, appending nothing,
    unless every line is one in-bounds entry of exactly the field's token
    count and there are at least `_MIN_COLUMN_LINES` of them.

    A `;` token replaces each newline. When the block has (width+1) tokens a
    line and every column but the last converts, no `;` is in those columns,
    so the `;`s fill the last one: each line holds exactly `width` tokens."""
    n = block.count("\n")
    if n < _MIN_COLUMN_LINES:
        return None
    _, nrows, ncols, pattern, conv = shape
    width = 2 if pattern else 3
    step = width + 1
    toks = block.replace("\n", " ; ").split()
    if len(toks) != n * step:
        return None
    try:
        rows = list(map(int, toks[0::step]))
        cols = list(map(int, toks[1::step]))
        col_vals = [1] * n if pattern else list(map(conv, toks[2::step]))
    except ValueError:
        return None
    if min(rows) < 1 or max(rows) > nrows or min(cols) < 1 or max(cols) > ncols:
        return None
    base = -ncols - 1
    keys += [i * ncols + j + base for i, j in zip(rows, cols)]
    vals += col_vals
    return n


def _lines(block: str, shape, symmetric: bool, keys: list, vals: list) -> int:
    """Append a block of coordinate lines to `keys` and `vals` line by line,
    a symmetric entry's mirror right after it, and return the number of entry
    lines; comments and blank lines are skipped, and the first bad line
    raises."""
    path, nrows, ncols, pattern, conv = shape
    count = 0
    for line in block.split("\n"):
        toks = line.split()
        if not toks or toks[0].startswith("%"):
            continue
        count += 1
        try:
            i, j = int(toks[0]), int(toks[1])
            v = 1 if pattern else conv(toks[2])
        except (IndexError, ValueError):
            raise TensorIOError(f"{path}: malformed entry {line.strip()!r}") from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise TensorIOError(f"{path}: coordinate ({i},{j}) out of bounds")
        keys.append((i - 1) * ncols + j - 1)
        vals.append(v)
        if symmetric and i != j:
            if not (j <= nrows and i <= ncols):
                raise TensorIOError(f"{path}: coordinate ({j},{i}) out of bounds")
            keys.append((j - 1) * ncols + i - 1)
            vals.append(v)
    return count


# float tokens without a point or an exponent, as `write_dense_text` writes
# non-finite floats
_NON_FINITE = ("inf", "infinity", "nan")


def read_dense_text(path: str) -> Tuple[List[int], list, str]:
    with reading(path) as fh:
        first = fh.readline()
        if not first.lower().startswith("dims:"):
            raise TensorIOError(f"{path}: first line must be 'dims: d1 d2 ...'")
        try:
            dims = [int(x) for x in first.split(":", 1)[1].split()]
        except ValueError:
            raise TensorIOError(f"{path}: bad dims line {first.strip()!r}") from None
        toks = fh.read().split()
    total = 1
    for d in dims:
        total *= d
    if len(toks) != total:
        raise TensorIOError(f"{path}: expected {total} values, found {len(toks)}")
    is_float = any(("." in t or "e" in t.lower() or t.lower().lstrip("+-") in _NON_FINITE)
                   and t not in ("true", "false") for t in toks)
    if all(t in ("true", "false") for t in toks):
        data = [t == "true" for t in toks]
        return dims, data, "bool"
    conv, dtype = (float, "float") if is_float else (int, "int")
    data = []
    for t in toks:
        try:
            data.append(conv(t))
        except ValueError:
            raise TensorIOError(f"{path}: bad {dtype} value {t!r}") from None
    return dims, data, dtype


def write_dense_text(path: str, dims: List[int], data: list):
    from .values import value_repr

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dims: " + " ".join(str(d) for d in dims) + "\n")
        fh.write(" ".join(value_repr(v) for v in data) + "\n")
