"""Hierarchical level-based tensor storage.

A tensor is a tree of levels, one per mode, ending in a leaf (Element or
RepeatRLE). The level formats are the classes of `levels.py`, re-exported
here; this module holds what every format shares. All positions and indices
are 1-based; Python-list offsetting is confined to the level classes and the
interpreter's buffers.

`from_dense` assembles the levels top-down from the caller's flat row-major
payload without copying it: a fiber of mode level k is the offset of its
first cell, and it spans the product of dims[k:] cells, and each level's
class builds it in one pass over its fibers' offsets. Every sparse level
assembles from `stored`, the ascending offsets of the payload's cells whose
value is not fill, each fiber from its window of them. `stored` is read
from one C-level scan of the payload, or from the record of a `Scattered`
payload (what `tensorio.matrix_market_dense` returns; see there) whose
background is not unequal to the fill, which makes every cell it does not
record a fill cell. Such a payload is never iterated: the leaf keeps the
values of the recorded cells it reads, and dtype inference and run-length
assembly take its types from the record. Any other payload's types are
scanned at most once, if a dtype is to be inferred or a level is rle.

Assembly also records the facts of each level array that generated code is
guarded by (`Level.facts`: value types and int bounds), from what it knows
of the arrays it builds, so no run scans them; the runtime buffers that
`tensor_buffers` makes carry them. Level arrays are not changed after
assembly, so recorded facts stay true for the tensor's life.

`to_dense` expands the levels top-down, all the fibers of a level in one
call (`Level.expand`). `validate` walks each level's stored entries and
names the first one out of order or out of bounds; it checks levels that
coil did not assemble (built by hand, in tests), since assembly builds
them in order. `tensor_buffers` and `from_buffers` convert between a tensor
and its runtime buffers, an input's buffers holding its level arrays
read-only.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, repeat
from operator import floordiv, is_not, mul, ne, sub
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


class _Payload(list):
    """A `Scattered` payload while it is written: a list with its slots and
    no Python method, so that writing a cell runs none."""

    __slots__ = ("offsets", "background", "types")


class Scattered(_Payload):
    """A row-major payload of cells of one background value, some of them
    written over, that records what was written: `offsets`, the ascending
    offsets of the written cells, as an `array('q')`; the `background`
    value; and `types`, the set of the types of all its values. It reads as
    the list it is. Any list mutation drops the record (`offsets` becomes
    None), so a payload changed after it was built is scanned like any
    other."""

    __slots__ = ()


def _dropping(mutate):
    def method(self, *args, **kwargs):
        self.offsets = None
        return mutate(self, *args, **kwargs)

    method.__name__ = mutate.__name__
    return method


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
              "insert", "pop", "remove", "reverse", "sort", "clear"):
    setattr(Scattered, _name, _dropping(getattr(list, _name)))


def scattered(size: int, background: Value, cells: List[int], values: list,
              types) -> Scattered:
    """`size` cells of `background`, cell cells[n] holding values[n] (each
    cell written at most once), with its record; `types` are the types of
    the values and the background. `cells` is left sorted. The list is
    written in place, before it becomes a `Scattered` and starts dropping
    its record on writes."""
    data = _Payload((background,))
    data *= size
    for k, v in zip(cells, values):
        data[k] = v
    cells.sort()
    data.offsets = array("q", cells)
    data.background, data.types = background, frozenset(types)
    data.__class__ = Scattered
    return data


def _recorded(data) -> Optional[Scattered]:
    """The payload, if it is a `Scattered` that still holds its record."""
    return data if isinstance(data, Scattered) and data.offsets is not None else None


def payload_types(data) -> set:
    """The set of the types of a payload's values: recorded, or read from
    every value."""
    rec = _recorded(data)
    return set(map(type, data)) if rec is None else set(rec.types)


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
    return Tensor(name, list(dims), asm.level(0, [0]), fill, dtype)


class _Assembly:
    """One `from_dense` payload: level k's fibers are offsets into `data`,
    each spanning span[k] = prod(dims[k:]) cells."""

    def __init__(self, kinds: List[str], dims: List[int], data, fill):
        self.kinds, self.dims, self.data, self.fill = kinds, dims, data, fill
        self.span = [math.prod(dims[k:]) for k in range(len(dims) + 1)]
        self.record = _recorded(data)

    def level(self, k: int, fibers: List[int]) -> Level:
        return KINDS[self.kinds[k]].assemble(self, k, fibers)

    @cached_property
    def types(self) -> set:
        """The types of the payload's values."""
        return payload_types(self.data)

    @cached_property
    def _kept(self) -> Optional[Tuple[List[int], list]]:
        """(`stored`, the values of those cells) read from the record, when
        the payload has one whose background is not unequal to fill, which
        makes every cell it does not record a fill cell; else None."""
        rec, fill = self.record, self.fill
        if rec is None or rec.background != fill:
            return None
        cells = rec.offsets.tolist()
        vals = list(map(rec.__getitem__, cells))
        if fill in vals:  # written cells that hold fill after all
            keep = list(map(ne, vals, repeat(fill)))
            cells, vals = list(compress(cells, keep)), list(compress(vals, keep))
        return cells, vals

    @cached_property
    def stored(self) -> List[int]:
        """The ascending offsets of the cells that hold a value other than
        fill (unless fill is missing, missing counts as one): read from the
        record where it may be, else from one scan of the payload."""
        if self._kept is not None:
            return self._kept[0]
        # missing compares unequal to every fill, so `!=` flags it stored
        test = is_not if self.fill is MISSING else ne
        return list(compress(range(len(self.data)), map(test, self.data, repeat(self.fill))))

    def values(self, cells: List[int]) -> list:
        """The values of these cells."""
        if self._kept is not None and cells == self._kept[0]:
            return self._kept[1]
        return list(map(self.data.__getitem__, cells))

    def windows(self, k: int, fibers: List[int]):
        """[lo, hi) of each of these fibers of mode level k: stored[lo:hi]
        are the stored cells it spans."""
        span, cells = self.span[k], self.stored
        lo = 0
        for b in fibers:
            lo = bisect_left(cells, b, lo)
            hi = bisect_left(cells, b + span, lo)
            yield lo, hi
            lo = hi

    def indices(self, k: int, fibers: List[int]):
        """(stored indices, their child fibers' offsets) of each of these
        fibers of mode level k: the ascending 1-based indices of its blocks
        of span[k+1] cells that hold a stored cell."""
        ss, cells = self.span[k + 1], self.stored
        for b, (lo, hi) in zip(fibers, self.windows(k, fibers)):
            got = cells[lo:hi]
            if ss == 1:
                yield list(map(sub, got, repeat(b - 1))), got
            else:  # the ids of the blocks that hold them, each once; block j is at offset j * ss
                ids = list(dict.fromkeys(map(floordiv, got, repeat(ss))))
                yield list(map(sub, ids, repeat(b // ss - 1))), list(map(mul, ids, repeat(ss)))


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
            try:
                for i, _ in level.entries(p):
                    if not prev < i <= level.size:
                        raise level.Disorder(
                            f"{where}: {level.kind} index {i} out of order or out of bounds "
                            f"1..{level.size} at fiber {p}")
                    prev = i
            except TypeError:  # a block end or band start that is no int spans no range
                raise level.Disorder(
                    f"{where}: {level.kind} bound that is not an integer at fiber {p}") from None
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
