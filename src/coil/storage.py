"""Hierarchical level-based tensor storage.

A tensor is a tree of levels, one per mode, ending in a leaf (Element or
RepeatRLE). The level formats are the classes of `levels.py`, re-exported
here; this module holds what every format shares. All positions and indices
are 1-based; Python-list offsetting is confined to the level classes and the
interpreter's buffers.

`from_dense` assembles the levels top-down from the caller's flat row-major
payload without copying it: a fiber of mode level k is the offset of its
first cell, and it spans the product of dims[k:] cells, and each level's
class builds it in one pass over its fibers' offsets. Whether a child block
holds anything other than fill is read from a stored-flag mask of the level,
built on first use: the last mode's from the values, each coarser one as
`any` over groups of the finer one. The set of value types is scanned at
most once per payload and shared by dtype inference and run-length
assembly; a payload that needs neither (a given dtype, no rle level) is not
scanned.

Assembly also records the facts of each level array that generated code is
guarded by (`Level.facts`: value types and int bounds), from what it knows
of the arrays it builds, so no run scans them; the runtime buffers that
`tensor_buffers` makes carry them. Level arrays are not changed after
`validate`, so recorded facts stay true for the tensor's life.

`to_dense` expands the levels top-down, all the fibers of a level in one
call (`Level.expand`); `validate` walks each level's stored entries;
`tensor_buffers` and `from_buffers` convert between a tensor and its
runtime buffers, an input's buffers holding its level arrays read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from operator import is_not, ne
from typing import Dict, List, Optional, Tuple

from .interp import Buf
from .levels import (
    KINDS,
    Dense,
    Element,
    FormatError,
    Level,
    OverlappingBlocks,
    PosRegression,
    RepeatRLE,
    RunCoverage,
    SparseBand,
    SparseList,
    SparseVBL,
    UnsortedIndices,
    normalize_spec,
)
from .values import MISSING, Value


@dataclass
class Tensor:
    name: str
    dims: List[int]
    root: Level
    fill: Value
    dtype: str

    def levels(self) -> List[Level]:
        out = [self.root]
        while out[-1].nested:
            out.append(out[-1].child)
        return out

    def format_spec(self) -> List[str]:
        return [l.kind for l in self.levels()]


def _infer_dtype(types, fill) -> str:
    """dtype of a payload whose values have these types."""
    types = types - {type(MISSING)}
    if fill is not MISSING:
        types.add(type(fill))
    if not types:
        return "float"
    if all(issubclass(t, bool) for t in types):
        return "bool"
    if any(issubclass(t, float) for t in types):
        return "float"
    return "int"


def check_payload(dims: List[int], data: List[Value]):
    """A row-major payload has positive dims and one value per cell."""
    for d in dims:
        if d < 1:
            raise FormatError(f"dimension sizes must be positive, got {dims}")
    total = math.prod(dims)
    if len(data) != total:
        raise FormatError(f"expected {total} values for dims {dims}, got {len(data)}")


def from_dense(name: str, dims: List[int], data: List[Value], spec: List[str],
               fill: Value = 0.0, dtype: Optional[str] = None) -> Tensor:
    """Construct a tensor in the given format from row-major dense data."""
    check_payload(dims, data)
    asm = _Assembly(normalize_spec(spec, len(dims)), dims, data, fill)
    if dtype is None:
        dtype = _infer_dtype(asm.types, fill)
    t = Tensor(name, list(dims), asm.level(0, [0]), fill, dtype)
    validate(t)
    return t


class _Assembly:
    """One `from_dense` payload: level k's fibers are offsets into `data`,
    each spanning span[k] = prod(dims[k:]) cells."""

    def __init__(self, kinds: List[str], dims: List[int], data, fill):
        self.kinds, self.dims, self.data, self.fill = kinds, dims, data, fill
        self.span = [math.prod(dims[k:]) for k in range(len(dims) + 1)]
        self.masks: Dict[int, bytearray] = {}

    def level(self, k: int, fibers: List[int]) -> Level:
        return KINDS[self.kinds[k]].assemble(self, k, fibers)

    @cached_property
    def types(self) -> set:
        """The types of the payload's values."""
        return set(map(type, self.data))

    def mask(self, k: int) -> bytearray:
        """Stored flags of mode level k: entry j says whether the j-th block of
        span[k+1] cells holds a value other than fill (unless fill is missing,
        missing counts as one)."""
        if k not in self.masks:
            if k == len(self.dims) - 1:
                if self.fill is MISSING:
                    mask = bytearray(map(is_not, self.data, repeat(MISSING)))
                else:  # missing compares unequal to every fill, so `!=` flags it stored
                    mask = bytearray(map(ne, self.data, repeat(self.fill)))
            else:
                finer, m = self.mask(k + 1), self.dims[k + 1]
                mask = bytearray(any(finer[j:j + m]) for j in range(0, len(finer), m))
            self.masks[k] = mask
        return self.masks[k]


def to_dense(t: Tensor) -> list:
    """Row-major dense expansion; unstored slots carry the fill value."""
    return t.root.expand(1, 2, t.fill)


def validate(t: Tensor):
    _validate(t.root, 1, f"{t.name}")


def _validate(level: Level, nfibers: int, where: str):
    nchildren = level.check(nfibers, where)
    if level.Disorder is not None:
        for p in range(1, nfibers + 1):
            prev = 0
            for i, _ in level.entries(p):
                if not prev < i <= level.size:
                    raise level.Disorder(
                        f"{where}: {level.kind} index {i} out of order or out of bounds "
                        f"1..{level.size} at fiber {p}")
                prev = i
    if level.nested:
        _validate(level.child, nchildren, where)


# -- runtime buffer exposure --------------------------------------------------


def buffer_names(name: str, kinds: List[str]) -> Dict[Tuple[int, str], str]:
    """(depth, field) -> buffer name for a tensor with these per-level kinds
    (inputs and outputs alike); depth suffix only on field collisions."""
    count: Dict[str, int] = {}
    for kind in kinds:
        for f in KINDS[kind].buffers:
            count[f] = count.get(f, 0) + 1
    names = {}
    for d, kind in enumerate(kinds, start=1):
        for f in KINDS[kind].buffers:
            suffix = str(d) if count[f] > 1 else ""
            names[(d, f)] = f"{name}_{f}{suffix}"
    return names


def tensor_buffers(t: Tensor) -> Dict[str, Buf]:
    names = buffer_names(t.name, t.format_spec())
    out = {}
    for d, lvl in enumerate(t.levels(), start=1):
        for f in lvl.buffers:
            data = getattr(lvl, f)
            dtype = t.dtype if f == "val" else None
            out[names[(d, f)]] = Buf(names[(d, f)], data, dtype, partial(lvl.facts, f),
                                     readonly=True)
    return out


def from_buffers(name: str, dims: List[int], kinds: List[str], data: Dict[str, list],
                 fill: Value, dtype: str) -> Tensor:
    """The tensor whose levels hold these buffers (buffer name -> values),
    the inverse of `tensor_buffers`."""
    names = buffer_names(name, kinds)
    lvl = None
    for d in range(len(kinds), 0, -1):
        cls = KINDS[kinds[d - 1]]
        args = {f: data[names[(d, f)]] for f in cls.buffers}
        if cls.mode:
            args["size"] = dims[d - 1]
        if cls.nested:
            args["child"] = lvl
        lvl = cls(**args)
    return Tensor(name, list(dims), lvl, fill, dtype)
