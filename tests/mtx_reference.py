"""Reference MatrixMarket reader for `tests/test_mtx_reference.py`: the
line-by-line coordinate and array reader, frozen as it was before
`coil.tensorio` learned to parse coordinate bodies in columns. It is never
imported by coil; the columnar reader is compared with it on seeded files,
so a fast path that drifts from these semantics or messages fails."""

from coil.tensorio import TensorIOError, reading


def read_matrix_market(path: str):
    dims, entries, dtype = _read_entries(path)
    ncols = dims[1]
    return dims, [(k // ncols + 1, k % ncols + 1, v) for k, v in sorted(entries.items())], dtype


def matrix_market_dense(path: str):
    dims, entries, dtype = _read_entries(path)
    data = [0.0 if dtype == "float" else 0] * (dims[0] * dims[1])
    for k, v in entries.items():
        data[k] = v
    return dims, data, dtype


def _read_entries(path: str):
    """Returns (dims, row-major cell offset -> value, value dtype)."""
    with reading(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise TensorIOError(f"{path}: missing MatrixMarket header")
        parts = header.lower().split()
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
            get = entries.get
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
            for j in range(1, ncols + 1):
                for i in range(j if symmetric else 1, nrows + 1):
                    entries[(i - 1) * ncols + j - 1] = vals[pos]
                    if symmetric and i != j:
                        if i > ncols:
                            raise TensorIOError(f"{path}: coordinate ({j},{i}) out of bounds")
                        entries[(j - 1) * ncols + i - 1] = vals[pos]
                    pos += 1

        return [nrows, ncols], entries, "float" if field == "real" else "int"
