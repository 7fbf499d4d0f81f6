"""Tensor file ingestion: MatrixMarket (.mtx) and a whitespace dense format.

Dense text format: first line `dims: d1 d2 ...`, then row-major values.
MatrixMarket support covers coordinate and array forms, real/integer/pattern
fields, general/symmetric symmetry; duplicate coordinates are summed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Tuple

from .values import Value


class TensorIOError(ValueError):
    pass


@contextmanager
def reading(path: str, error=TensorIOError):
    """`path` opened as UTF-8 text; a file that cannot be opened or decoded
    raises `error` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as ex:
        raise error(f"cannot read {path}: {getattr(ex, 'strerror', None) or ex}") from None


def read_matrix_market(path: str) -> Tuple[List[int], List[Tuple], str]:
    """Returns (dims, triples sorted row-major, value dtype).

    A MatrixMarket file holds a matrix, so dims are always [rows, columns]
    and triples always (i, j, v), with 1-based coordinates; symmetric inputs
    are expanded to general, pattern entries read as 1.
    """
    dims, entries, dtype = _read_entries(path)
    ncols = dims[1]
    return dims, [(k // ncols + 1, k % ncols + 1, v) for k, v in sorted(entries.items())], dtype


def _read_entries(path: str) -> Tuple[List[int], Dict[int, Value], str]:
    """Returns (dims, row-major cell offset -> value, value dtype)."""
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

        entries = {}
        conv = int if field == "integer" else float
        pattern = field == "pattern"
        symmetric = symmetry == "symmetric"
        if layout == "coordinate":
            get = entries.get  # duplicates are summed in file order
            count = 0
            for line in fh:
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
                key = (i - 1) * ncols + j - 1
                prev = get(key)
                entries[key] = v if prev is None else prev + v
                if symmetric and i != j:
                    if not (j <= nrows and i <= ncols):
                        raise TensorIOError(f"{path}: coordinate ({j},{i}) out of bounds")
                    key = (j - 1) * ncols + i - 1
                    prev = get(key)
                    entries[key] = v if prev is None else prev + v
            if count != nnz:
                raise TensorIOError(f"{path}: expected {nnz} entries, found {count}")
        else:
            try:
                vals = [1 if pattern else conv(tok) for line in fh for tok in line.split()]
            except ValueError as ex:
                raise TensorIOError(f"{path}: malformed array value: {ex}") from None
            if len(vals) != (nrows * (nrows + 1) // 2 if symmetric else nnz):
                raise TensorIOError(f"{path}: wrong number of array values")
            pos = 0
            for j in range(1, ncols + 1):  # array layout is column-major
                for i in range(j if symmetric else 1, nrows + 1):
                    entries[(i - 1) * ncols + j - 1] = vals[pos]
                    if symmetric and i != j:
                        if i > ncols:
                            raise TensorIOError(f"{path}: coordinate ({j},{i}) out of bounds")
                        entries[(j - 1) * ncols + i - 1] = vals[pos]
                    pos += 1

        return [nrows, ncols], entries, "float" if field == "real" else "int"


def matrix_market_dense(path: str) -> Tuple[List[int], list, str]:
    """Scatter a MatrixMarket file into a row-major dense payload."""
    dims, entries, dtype = _read_entries(path)
    data = [0.0 if dtype == "float" else 0] * (dims[0] * dims[1])
    for k, v in entries.items():
        data[k] = v
    return dims, data, dtype


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
