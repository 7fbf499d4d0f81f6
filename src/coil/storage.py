"""Hierarchical level-based tensor storage.

A tensor is a tree of levels, one per mode, ending in a leaf (Element or
RepeatRLE). A fiber is one node of that tree: a map from one index to a
subfiber. All positions and indices are 1-based; Python-list offsetting is
confined to this module and the interpreter's buffers.

`from_dense` assembles the levels from the caller's flat row-major payload
without copying it. A fiber of mode level k is the offset of its first cell,
and it spans the product of dims[k:] cells. Whether a child block holds
anything other than fill is read from one stored-flag mask per sparse level;
the masks are built bottom-up in one pass, the leaf mask from the values and
each coarser one as `any` over groups of the finer one. Each level is then
built in one pass over its fibers' offsets, top-down: dense expands them,
splist/sband/svbl take indices, band ends and blocks from the mask, rle groups
the fiber's values, and elem gathers them.

A run-length run continues while a cell equals its predecessor and shares its
type. The rle level finds runs without a per-cell Python step: each fiber's
slice goes through `itertools.groupby`, keyed by (value, type) only when the
payload mixes types. groupby compares a cell with its run's first value and
takes an identical object as equal without comparing; for every value but NaN
(equal to nothing) that is the same relation, so a NaN run, one object
repeated, is split into single cells. The set of value types is scanned once
per payload and shared with dtype inference; a payload that needs neither (a
given dtype and no rle level) is not scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, groupby, repeat
from operator import is_not, ne
from typing import Dict, List, Optional, Tuple

from .interp import Buf
from .values import MISSING, Value


class FormatError(ValueError):
    pass


class UnsortedIndices(FormatError):
    pass


class PosRegression(FormatError):
    pass


class RunCoverage(FormatError):
    """Run-length runs must tile each fiber exactly, ending at the mode size."""


class OverlappingBlocks(FormatError):
    pass


class Level:
    __slots__ = ()
    kind = "?"


@dataclass
class Dense(Level):
    size: int
    child: Level
    kind = "dense"


@dataclass
class SparseList(Level):
    """Scattered nonzeros: per-fiber [pos[p], pos[p+1]) windows into idx."""

    size: int
    pos: List[int]
    idx: List[int]
    child: Level
    kind = "splist"


@dataclass
class SparseBand(Level):
    """One contiguous stored block per fiber; empty fiber has start = stop+1."""

    size: int
    start: List[int]
    stop: List[int]
    ofs: List[int]
    child: Level
    kind = "sband"


@dataclass
class SparseVBL(Level):
    """Multiple variable-length contiguous blocks per fiber.

    pos windows select block slots; idx[b] is block b's last index and
    ofs[b+1]-ofs[b] its length, stored at child positions ofs[b]..ofs[b+1]-1.
    """

    size: int
    pos: List[int]
    idx: List[int]
    ofs: List[int]
    child: Level
    kind = "svbl"


@dataclass
class RepeatRLE(Level):
    """Run-length-encoded leaf; runs tile each fiber, final run ends at size."""

    size: int
    pos: List[int]
    idx: List[int]
    val: List[Value]
    kind = "rle"


@dataclass
class Element(Level):
    val: List[Value]
    kind = "elem"


LEAF_KINDS = ("rle", "elem")
MODE_KINDS = ("dense", "splist", "sband", "svbl", "rle")


@dataclass(frozen=True)
class Environment:
    """Path from the tensor root: one 1-based position per level."""

    path: Tuple[int, ...]

    def extend(self, pos: int) -> "Environment":
        return Environment(self.path + (pos,))


@dataclass
class Fiber:
    level: Level
    env: Environment
    fill: Value = 0.0

    @property
    def pos(self) -> int:
        return self.env.path[-1]


@dataclass
class Tensor:
    name: str
    dims: List[int]
    root: Level
    fill: Value
    dtype: str

    def root_fiber(self) -> Fiber:
        return Fiber(self.root, Environment((1,)), self.fill)

    def levels(self) -> List[Level]:
        out = []
        lvl = self.root
        while True:
            out.append(lvl)
            if isinstance(lvl, (Element, RepeatRLE)):
                break
            lvl = lvl.child
        return out

    def format_spec(self) -> List[str]:
        return [l.kind for l in self.levels()]


def normalize_spec(spec: List[str], rank: int) -> List[str]:
    """Canonical per-level kind list: rank mode levels, elem appended unless
    the last mode is run-length encoded (which is its own leaf)."""
    kinds = [k.lower() for k in spec]
    alias = {"sparselist": "splist", "sparseband": "sband", "sparsevbl": "svbl",
             "repeatrle": "rle", "element": "elem"}
    kinds = [alias.get(k, k) for k in kinds]
    if kinds and kinds[-1] == "elem":
        body = kinds[:-1]
    else:
        body = kinds
    if len(body) != rank:
        raise FormatError(f"format spec {spec} does not match rank {rank}")
    for k in body[:-1] if body else []:
        if k not in ("dense", "splist", "sband", "svbl"):
            raise FormatError(f"level kind {k!r} cannot have children")
    if rank:
        if body[-1] not in MODE_KINDS:
            raise FormatError(f"unknown level kind {body[-1]!r}")
        if body[-1] == "rle":
            return body
    return body + ["elem"]


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


def from_dense(name: str, dims: List[int], data: List[Value], spec: List[str],
               fill: Value = 0.0, dtype: Optional[str] = None) -> Tensor:
    """Construct a tensor in the given format from row-major dense data."""
    rank = len(dims)
    total = 1
    for d in dims:
        if d < 1:
            raise FormatError(f"dimension sizes must be positive, got {dims}")
        total *= d
    if len(data) != total:
        raise FormatError(f"expected {total} values for dims {dims}, got {len(data)}")
    kinds = normalize_spec(spec, rank)
    types = set(map(type, data)) if dtype is None or kinds[-1] == "rle" else None
    if dtype is None:
        dtype = _infer_dtype(types, fill)
    root = _build(kinds, dims, data, fill, types)
    t = Tensor(name, list(dims), root, fill, dtype)
    validate(t)
    return t


def _stored_masks(kinds: List[str], dims: List[int], data, fill) -> Dict[int, bytearray]:
    """Stored flags for each sparse mode level k, built bottom-up in one pass:
    entry j of masks[k] says whether the j-th block of prod(dims[k+1:]) cells
    holds a value other than fill (unless fill is missing, missing counts as one)."""
    sparse = [k for k, kind in enumerate(kinds) if kind in ("splist", "sband", "svbl")]
    if not sparse:
        return {}
    if fill is MISSING:
        mask = bytearray(map(is_not, data, repeat(MISSING)))
    else:  # missing compares unequal to every fill, so `!=` flags it stored
        mask = bytearray(map(ne, data, repeat(fill)))
    masks = {len(dims) - 1: mask}
    for k in range(len(dims) - 2, sparse[0] - 1, -1):
        m = dims[k + 1]
        mask = bytearray(any(mask[j:j + m]) for j in range(0, len(mask), m))
        masks[k] = mask
    return masks


def _build(kinds: List[str], dims: List[int], data, fill, types) -> Level:
    """Assemble the levels top-down. A fiber of level k is the offset of its
    first cell in the row-major `data`; it spans prod(dims[k:]) cells. `types`
    is the set of value types in `data` (needed for an rle level)."""
    masks = _stored_masks(kinds, dims, data, fill)
    span = [1] * (len(dims) + 1)
    for k in range(len(dims) - 1, -1, -1):
        span[k] = span[k + 1] * dims[k]

    def level(k: int, fibers: List[int]) -> Level:
        kind = kinds[k]
        if kind == "elem":
            return Element([data[b] for b in fibers])
        size, ss = dims[k], span[k + 1]
        if kind == "dense":
            children = [b + o for b in fibers for o in range(0, span[k], ss)]
            return Dense(size, level(k + 1, children))
        if kind == "rle":
            pos, idx, val = [1], [], []
            for b in fibers:
                vals = data[b:b + size]
                if len(types) > 1:
                    runs = [(v, len(list(g))) for (v, _), g in groupby(zip(vals, map(type, vals)))]
                else:
                    runs = [(v, len(list(g))) for v, g in groupby(vals)]
                firsts, lens = zip(*runs)
                if any(map(ne, firsts, firsts)):  # split NaN runs into single cells
                    runs = [(v, m) for v, n in runs for m in ([1] * n if v != v else [n])]
                    firsts, lens = zip(*runs)
                val += firsts
                idx += accumulate(lens)
                pos.append(len(idx) + 1)
            return RepeatRLE(size, pos, idx, val)
        mask = masks[k]
        if kind == "splist":
            pos, idx, children = [1], [], []
            for b in fibers:
                q = b // ss
                got = list(compress(range(1, size + 1), mask[q:q + size]))
                idx += got
                children += [b + (i - 1) * ss for i in got]
                pos.append(len(idx) + 1)
            return SparseList(size, pos, idx, level(k + 1, children))
        if kind == "sband":
            start, stop, ofs, children = [], [], [1], []
            for b in fibers:
                q = b // ss
                first = mask.find(1, q, q + size)
                if first < 0:
                    a, z = 1, 0
                else:
                    a, z = first - q + 1, mask.rfind(1, q, q + size) - q + 1
                start.append(a)
                stop.append(z)
                children += range(b + (a - 1) * ss, b + z * ss, ss)
                ofs.append(len(children) + 1)
            return SparseBand(size, start, stop, ofs, level(k + 1, children))
        if kind == "svbl":
            pos, idx, ofs, children = [1], [], [1], []
            for b in fibers:
                q = b // ss
                got = list(compress(range(1, size + 1), mask[q:q + size]))
                # a block ends at each stored index whose successor is not stored
                ends = [n for n, i in enumerate(got, 1) if n == len(got) or got[n] != i + 1]
                idx += [got[n - 1] for n in ends]
                ofs += [len(children) + n + 1 for n in ends]
                children += [b + (i - 1) * ss for i in got]
                pos.append(len(idx) + 1)
            return SparseVBL(size, pos, idx, ofs, level(k + 1, children))
        raise FormatError(f"unsupported level kind {kind!r}")

    return level(0, [0])


def subtree_len(level: Level) -> int:
    if isinstance(level, Element):
        return 1
    if isinstance(level, RepeatRLE):
        return level.size
    return level.size * subtree_len(level.child)


def _expand(level: Level, pos: int, fill) -> list:
    if isinstance(level, Element):
        return [level.val[pos - 1]]
    if isinstance(level, RepeatRLE):
        out = []
        prev = 0
        for r in range(level.pos[pos - 1], level.pos[pos]):
            end, v = level.idx[r - 1], level.val[r - 1]
            out.extend([v] * (end - prev))
            prev = end
        return out
    ss = subtree_len(level.child)
    if isinstance(level, Dense):
        out = []
        for i in range(1, level.size + 1):
            out.extend(_expand(level.child, (pos - 1) * level.size + i, fill))
        return out
    if isinstance(level, SparseList):
        out = [fill] * (level.size * ss)
        for q in range(level.pos[pos - 1], level.pos[pos]):
            i = level.idx[q - 1]
            out[(i - 1) * ss:i * ss] = _expand(level.child, q, fill)
        return out
    if isinstance(level, SparseBand):
        out = [fill] * (level.size * ss)
        a, b, o = level.start[pos - 1], level.stop[pos - 1], level.ofs[pos - 1]
        for i in range(a, b + 1):
            out[(i - 1) * ss:i * ss] = _expand(level.child, o + (i - a), fill)
        return out
    if isinstance(level, SparseVBL):
        out = [fill] * (level.size * ss)
        for b in range(level.pos[pos - 1], level.pos[pos]):
            end = level.idx[b - 1]
            length = level.ofs[b] - level.ofs[b - 1]
            startidx = end - length + 1
            for i in range(startidx, end + 1):
                out[(i - 1) * ss:i * ss] = _expand(level.child, level.ofs[b - 1] + (i - startidx), fill)
        return out
    raise FormatError(f"cannot expand {level!r}")


def to_dense(t: Tensor) -> list:
    """Row-major dense expansion; unstored slots carry the fill value."""
    return _expand(t.root, 1, t.fill)


def subfiber(f: Fiber, i: int):
    """Child fiber (or leaf value) at index i; fill for unstored slots."""
    lvl = f.level
    if isinstance(lvl, (Element,)):
        raise FormatError("subfiber on a leaf level")
    if not (1 <= i <= lvl.size):
        raise FormatError(f"index {i} out of bounds 1..{lvl.size}")
    if isinstance(lvl, RepeatRLE):
        for r in range(lvl.pos[f.pos - 1], lvl.pos[f.pos]):
            if i <= lvl.idx[r - 1]:
                return lvl.val[r - 1]
        raise RunCoverage(f"runs do not cover index {i}")
    child_pos = None
    if isinstance(lvl, Dense):
        child_pos = (f.pos - 1) * lvl.size + i
    elif isinstance(lvl, SparseList):
        for q in range(lvl.pos[f.pos - 1], lvl.pos[f.pos]):
            if lvl.idx[q - 1] == i:
                child_pos = q
                break
    elif isinstance(lvl, SparseBand):
        a, b, o = lvl.start[f.pos - 1], lvl.stop[f.pos - 1], lvl.ofs[f.pos - 1]
        if a <= i <= b:
            child_pos = o + (i - a)
    elif isinstance(lvl, SparseVBL):
        for b in range(lvl.pos[f.pos - 1], lvl.pos[f.pos]):
            end = lvl.idx[b - 1]
            length = lvl.ofs[b] - lvl.ofs[b - 1]
            if end - length + 1 <= i <= end:
                child_pos = lvl.ofs[b - 1] + (i - (end - length + 1))
                break
    if child_pos is None:
        return f.fill
    child = lvl.child
    if isinstance(child, Element):
        return child.val[child_pos - 1]
    return Fiber(child, f.env.extend(child_pos), f.fill)


# -- validation --------------------------------------------------------------


def _check_pos(pos, nfibers, where):
    if len(pos) != nfibers + 1:
        raise PosRegression(f"{where}: pos has {len(pos)} entries for {nfibers} fibers")
    if pos[0] != 1:
        raise PosRegression(f"{where}: pos must start at 1")
    for a, b in zip(pos, pos[1:]):
        if b < a:
            raise PosRegression(f"{where}: pos regresses from {a} to {b}")


def validate(t: Tensor):
    _validate(t.root, 1, f"{t.name}")


def _validate(level: Level, nfibers: int, where: str):
    if isinstance(level, Element):
        if len(level.val) != nfibers:
            raise FormatError(f"{where}: element stores {len(level.val)} of {nfibers} values")
        return
    if isinstance(level, RepeatRLE):
        _check_pos(level.pos, nfibers, where)
        if len(level.idx) != len(level.val):
            raise FormatError(f"{where}: run idx/val length mismatch")
        for p in range(nfibers):
            prev = 0
            for r in range(level.pos[p], level.pos[p + 1]):
                end = level.idx[r - 1]
                if end <= prev:
                    raise UnsortedIndices(f"{where}: run ends not increasing at fiber {p + 1}")
                prev = end
            if prev != level.size:
                raise RunCoverage(
                    f"{where}: runs of fiber {p + 1} end at {prev}, not at size {level.size}")
        return
    if isinstance(level, Dense):
        _validate(level.child, nfibers * level.size, where)
        return
    if isinstance(level, SparseList):
        _check_pos(level.pos, nfibers, where)
        for p in range(nfibers):
            prev = 0
            for q in range(level.pos[p], level.pos[p + 1]):
                i = level.idx[q - 1]
                if not (1 <= i <= level.size):
                    raise UnsortedIndices(f"{where}: index {i} out of bounds 1..{level.size}")
                if i <= prev:
                    raise UnsortedIndices(f"{where}: indices not strictly increasing at fiber {p + 1}")
                prev = i
        _validate(level.child, len(level.idx), where)
        return
    if isinstance(level, SparseBand):
        if not (len(level.start) == len(level.stop) == nfibers and len(level.ofs) == nfibers + 1):
            raise FormatError(f"{where}: band start/stop/ofs sized wrong")
        for p in range(nfibers):
            a, b = level.start[p], level.stop[p]
            width = max(0, b - a + 1)
            if width and not (1 <= a <= b <= level.size):
                raise FormatError(f"{where}: band {a}..{b} out of bounds at fiber {p + 1}")
            if level.ofs[p + 1] - level.ofs[p] != width:
                raise FormatError(f"{where}: band value offsets disagree at fiber {p + 1}")
        _validate(level.child, level.ofs[-1] - 1, where)
        return
    if isinstance(level, SparseVBL):
        _check_pos(level.pos, nfibers, where)
        if len(level.ofs) != len(level.idx) + 1:
            raise FormatError(f"{where}: block ofs/idx length mismatch")
        for p in range(nfibers):
            prev_end = 0
            for b in range(level.pos[p], level.pos[p + 1]):
                end = level.idx[b - 1]
                length = level.ofs[b] - level.ofs[b - 1]
                startidx = end - length + 1
                if length < 1 or not (1 <= startidx <= end <= level.size):
                    raise OverlappingBlocks(f"{where}: block {b} malformed at fiber {p + 1}")
                if startidx <= prev_end:
                    raise OverlappingBlocks(
                        f"{where}: blocks overlap or touch out of order at fiber {p + 1}")
                prev_end = end
        _validate(level.child, level.ofs[-1] - 1, where)
        return
    raise FormatError(f"cannot validate {level!r}")


# -- runtime buffer exposure --------------------------------------------------

_FIELDS = {
    "splist": ("pos", "idx"),
    "sband": ("start", "stop", "ofs"),
    "svbl": ("pos", "idx", "ofs"),
    "rle": ("pos", "idx", "val"),
    "elem": ("val",),
    "dense": (),
}


def buffer_names(name: str, kinds: List[str]) -> Dict[Tuple[int, str], str]:
    """(depth, field) -> buffer name for a tensor with these per-level kinds
    (inputs and outputs alike); depth suffix only on field collisions."""
    count: Dict[str, int] = {}
    for kind in kinds:
        for f in _FIELDS[kind]:
            count[f] = count.get(f, 0) + 1
    names = {}
    for d, kind in enumerate(kinds, start=1):
        for f in _FIELDS[kind]:
            suffix = str(d) if count[f] > 1 else ""
            names[(d, f)] = f"{name}_{f}{suffix}"
    return names


def tensor_buffers(t: Tensor) -> Dict[str, Buf]:
    names = buffer_names(t.name, t.format_spec())
    out = {}
    for d, lvl in enumerate(t.levels(), start=1):
        for f in _FIELDS[lvl.kind]:
            data = getattr(lvl, f)
            dtype = t.dtype if f == "val" else None
            out[names[(d, f)]] = Buf(names[(d, f)], data, dtype)
    return out
