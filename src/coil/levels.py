"""Level formats: one class per kind of storage level.

A tensor is a tree of levels, one per mode, ending in a leaf (Element, or a
run-length level, which is its own leaf). A fiber is one node of that tree,
named by its 1-based position in its level. Each level kind is one dataclass
whose fields other than `size` and `child` are its buffers, and the class
owns everything coil knows about that kind:

- `kind`, its spec name (the lower-cased class name is an alias);
- `assemble`, the level built in one pass over its fibers, each the offset
  of its first cell in a row-major payload;
- `entries`, the stored entries of a fiber as (index, child position) pairs,
  on which the order checks of validation run, and `check`, which
  validates the rest of its buffers;
- `expand`, the row-major dense values of a range of consecutive fibers,
  whose children expand in one call;
- `protocols`, how it unfurls into looplets, one function per access
  protocol;
- `locate`, random access to one index, shared by the `follow` protocol and
  by the lowering of reads at a bound index;
- `writer`, the runtime writer of an output whose last mode it is (None if it
  cannot be one);
- `facts`, the facts of each buffer's values (types, and bounds of int
  values) that generated code is guarded by. Assembly records them from
  what it knows of the arrays it builds, in time linear in the fibers:
  `pos` and `ofs` ascend from 1, and `idx` ascends within each fiber, so its
  bounds are its fibers' first and last entries. Buffers with nothing
  recorded are scanned on first use and the result kept.

`@level` registers a class in `KINDS`; spec parsing, assembly, validation,
unfurling, lowering and output binding all look kinds up there.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate, chain, compress, groupby, repeat
from operator import ne, sub
from typing import Dict, List

from .cin import CompileError, Cursor
from .expr import Call, Lit, ONE, Read, Search, TRUE, Var, eq, iadd, imul, isub, le
from .interp import INTS, scan_facts
from .looplets import Jumper, Lookup, Phase, Pipeline, Run, Spike, Stepper, Switch
from .target import AssignVar, Let, Template
from .values import Value
from .writers import DenseWriter, RLEWriter, SparseListWriter


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


KINDS: Dict[str, type] = {}


def level(cls):
    """Make `cls` a level format: a dataclass whose `buffers` are its fields
    other than `size` and `child`, registered under its kind and class name."""
    cls = dataclass(cls)
    names = [f.name for f in fields(cls)]
    cls.buffers = tuple(n for n in names if n not in ("size", "child"))
    cls.mode = "size" in names    # occupies a mode (all but the scalar leaf)
    cls.nested = "child" in names  # has a child level
    KINDS[cls.kind] = KINDS[cls.__name__.lower()] = cls
    return cls


def normalize_spec(spec: List[str], rank: int) -> List[str]:
    """Canonical per-level kind list: rank mode levels, then the scalar leaf
    unless the last mode is a leaf itself."""
    kinds = [KINDS[k].kind if k in KINDS else k for k in (s.lower() for s in spec)]
    body = kinds[:-1] if kinds and kinds[-1] == Element.kind else kinds
    if len(body) != rank:
        raise FormatError(f"format spec {spec} does not match rank {rank}")
    for k in body[:-1]:
        if k not in KINDS or not KINDS[k].nested:
            raise FormatError(f"level kind {k!r} cannot have children")
    if rank:
        last = KINDS.get(body[-1])
        if last is None or not last.mode:
            raise FormatError(f"unknown level kind {body[-1]!r}")
        if not last.nested:
            return body
    return body + [Element.kind]


def _check_pos(pos, nfibers, where):
    if len(pos) != nfibers + 1:
        raise PosRegression(f"{where}: pos has {len(pos)} entries for {nfibers} fibers")
    if pos[0] != 1:
        raise PosRegression(f"{where}: pos must start at 1")
    for a, b in zip(pos, pos[1:]):
        if b < a:
            raise PosRegression(f"{where}: pos regresses from {a} to {b}")


class Fiber:
    """Compile-time view of one fiber: level `depth` of the bound tensor `bt`
    at position `pos` (an expression), with fresh names from `names`. When
    `static`, the payload and the position (a literal) are known, and
    structural metadata is folded into literals, each read as a recorded
    `bt.fact`; value payloads never are."""

    def __init__(self, bt, depth: int, pos, names, static: bool = False):
        self.bt, self.depth, self.pos, self.names, self.static = bt, depth, pos, names, static
        self.level = bt.levels[depth - 1]
        self.fill = Lit(bt.fill)

    def fresh(self, base: str) -> str:
        return self.names.fresh(f"{base}_{self.bt.name}")

    def read(self, field: str, at) -> Read:
        return Read(self.bt.bufname(self.depth, field), (at,))

    def get(self, field: str, shift: int = 0):
        """Entry pos + shift of this level's `field` buffer."""
        if self.static:
            return Lit(self.bt.fact(self.depth, field, self.pos.value - 1 + shift))
        return self.read(field, iadd(self.pos, Lit(shift)) if shift else self.pos)

    def empty(self) -> bool:
        """Whether the fiber is known to store nothing."""
        return self.static and self.bt.fact(self.depth, "empty", self.pos.value)

    def window(self):
        """First and one-past-last entry of the fiber in a pos-windowed level."""
        return self.get("pos"), self.get("pos", 1)

    def search(self, x):
        """First entry of the window whose idx is at least x."""
        lo, hi = self.window()
        return Search(self.bt.bufname(self.depth, "idx"), lo, isub(hi, ONE), x)

    def last(self):
        """idx of the window's last entry, 0 when it is empty."""
        lo, hi = self.window()
        if self.static:
            return Lit(self.bt.fact(self.depth, "idx", hi.value - 2))
        return Call("select", (le(iadd(lo, ONE), hi), self.read("idx", isub(hi, ONE)), Lit(0)))

    def child(self, at):
        """What the child fiber at position `at` denotes: its value when the
        child is the scalar leaf, else a cursor (the enclosing access keeps the
        remaining indices)."""
        d = self.depth + 1
        if self.bt.levels[d - 1].mode:
            return Cursor(self.bt.name, d, at)
        return Read(self.bt.bufname(d, "val"), (at,))


class Level:
    """The interface every level format implements; see the module docstring."""

    __slots__ = ()
    known: Dict[str, tuple]  # buffer field -> facts of its values, once known
    kind = "?"
    # access protocol -> function of a Fiber (defined in the class body,
    # without self) returning the fiber's looplet nest
    protocols: Dict[str, object] = {}
    writer = None
    # raised when a fiber's entries are out of order or out of bounds; None when
    # they are ordered by construction
    Disorder = FormatError

    def __post_init__(self):
        self.known = {}

    def recorded(self, **facts) -> "Level":
        """The level, with the facts of these buffers recorded."""
        self.known.update(facts)
        return self

    def facts(self, field: str) -> tuple:
        """Facts of buffer `field`, as `scan_facts` reads them: recorded at
        assembly, or scanned now and kept. The level's arrays are not
        changed once validated, so what is kept stays true."""
        got = self.known.get(field)
        if got is None:
            got = self.known[field] = scan_facts(getattr(self, field))
        return got

    @classmethod
    def assemble(cls, a, k: int, fibers: List[int]) -> "Level":
        """Level k over these fibers, offsets into the payload of the assembly
        `a` (`storage._Assembly`), which assembles the levels below."""
        raise NotImplementedError

    def entries(self, p: int):
        """Iterator of (index, child position) over fiber p's stored entries."""
        raise NotImplementedError

    def check(self, nfibers: int, where: str) -> int:
        """Check the buffers of nfibers fibers but for the order of their
        entries; return the number of child fibers."""
        raise NotImplementedError

    @classmethod
    def locate(cls, f: Fiber, i):
        """Random access to index i of fiber f: (bindings to make first,
        condition for i being stored or None if it always is, position of its
        entry)."""
        raise NotImplementedError

    def cells(self) -> int:
        """Cells of the dense block one fiber spans."""
        return self.size * self.child.cells()

    def expand(self, first: int, last: int, fill) -> list:
        """Row-major dense values of the consecutive fibers first..last-1;
        unstored cells carry fill. The entries of consecutive fibers have
        consecutive child positions, so their children expand in one call."""
        ss, span = self.child.cells(), self.cells()
        out = [fill] * ((last - first) * span)
        spots = [((p - first) * span + (i - 1) * ss, q)
                 for p in range(first, last) for i, q in self.entries(p)]
        if spots:
            vals = self.child.expand(spots[0][1], spots[-1][1] + 1, fill)
            for k, (at, _) in enumerate(spots):
                out[at:at + ss] = vals[k * ss:(k + 1) * ss]
        return out

    @classmethod
    def entry(cls, f: Fiber, at):
        """Value of the stored entry at position `at`."""
        return f.child(at) if cls.nested else f.read("val", at)


def _follow(f: Fiber):
    """Random access: every index is located in the fiber."""
    sym = f.fresh("i")
    binds, found, at = f.level.locate(f, Var(sym))
    body = f.level.entry(f, at)
    if found is not None:
        body = Switch(((found, body), (TRUE, Run(f.fill))))
    return Lookup(sym, body, binds=binds)


def _steps(f: Fiber, var: str, stop, body, node=Stepper):
    """Stepper (or Jumper) whose position `var` steps through the fiber's
    window, seeking by search."""
    return node(stop=stop, body=body, next=Template((AssignVar(var, iadd(Var(var), ONE)),)),
                seek=Template((Let(var, f.search(Var("__start__"))),), "__start__"))


def _steps_then_fill(f: Fiber, var: str, stop, body, node=Stepper):
    """The steps over the window, then fill past its last entry."""
    return Pipeline((Phase(_steps(f, var, stop, body, node), stop=f.last()), Phase(Run(f.fill))))


def _ascending(a: List[int]) -> tuple:
    """Facts of an int array that ascends from 1, such as `pos` and `ofs`."""
    return (INTS, (1, a[-1]))


def _fibered(pos: List[int], idx: List[int]) -> tuple:
    """Facts of an int array that ascends within each fiber of `pos`: its
    least fiber-first and greatest fiber-last entries bound it."""
    windows = [(lo, hi) for lo, hi in zip(pos, pos[1:]) if lo < hi]
    if not windows:
        return (frozenset(), ())
    return (INTS, (min(idx[lo - 1] for lo, _ in windows), max(idx[hi - 2] for _, hi in windows)))


def _listed_entries(lvl, p: int):
    lo, hi = lvl.pos[p - 1], lvl.pos[p]
    return zip(lvl.idx[lo - 1:hi - 1], range(lo, hi))


def _masked_fibers(a, k: int, fibers: List[int]):
    """(fiber offset, stored flags of its cells) of each fiber of level k."""
    mask, ss, size = a.mask(k), a.span[k + 1], a.dims[k]
    for b in fibers:
        q = b // ss
        yield b, mask[q:q + size]


@level
class Dense(Level):
    size: int
    child: Level
    kind = "dense"
    writer = DenseWriter
    Disorder = None

    @classmethod
    def assemble(cls, a, k, fibers):
        ss = a.span[k + 1]
        return cls(a.dims[k], a.level(k + 1, [b + o for b in fibers for o in range(0, a.span[k], ss)]))

    def entries(self, p):
        base = (p - 1) * self.size
        return zip(range(1, self.size + 1), range(base + 1, base + self.size + 1))

    def check(self, nfibers, where) -> int:
        return nfibers * self.size

    def expand(self, first, last, fill):
        """Every cell is stored, so the children are one range of positions."""
        return self.child.expand((first - 1) * self.size + 1, (last - 1) * self.size + 1, fill)

    @classmethod
    def locate(cls, f, i):
        return (), None, iadd(imul(isub(f.pos, ONE), Lit(f.bt.mode_size(f.depth))), i)

    def _followzero(f):
        """Follow that tests each value against fill, so a fill value runs."""
        if f.bt.levels[f.depth].mode:
            raise CompileError(
                f"{f.bt.name}: zero-check protocol needs a scalar leaf below the dense mode")
        sym = f.fresh("i")
        val = f.child(Dense.locate(f, Var(sym))[2])
        return Lookup(sym, Switch(((eq(val, f.fill), Run(f.fill)), (TRUE, val))))

    protocols = {"walk": _follow, "follow": _follow, "followzero": _followzero}


@level
class SparseList(Level):
    """Scattered nonzeros: per-fiber [pos[p], pos[p+1]) windows into idx."""

    size: int
    pos: List[int]
    idx: List[int]
    child: Level
    kind = "splist"
    writer = SparseListWriter
    Disorder = UnsortedIndices

    @classmethod
    def assemble(cls, a, k, fibers):
        ss, size = a.span[k + 1], a.dims[k]
        pos, idx, children = [1], [], []
        for b, stored in _masked_fibers(a, k, fibers):
            got = list(compress(range(1, size + 1), stored))
            idx += got
            children += [b + (i - 1) * ss for i in got]
            pos.append(len(idx) + 1)
        return cls(size, pos, idx, a.level(k + 1, children)).recorded(
            pos=_ascending(pos), idx=_fibered(pos, idx))

    entries = _listed_entries

    def check(self, nfibers, where) -> int:
        _check_pos(self.pos, nfibers, where)
        return len(self.idx)

    @classmethod
    def locate(cls, f, i):
        p = f.fresh("p")
        _, hi = f.window()
        found = Call("and", (le(Var(p), isub(hi, ONE)), eq(f.read("idx", Var(p)), i)))
        return ((p, f.search(i)),), found, Var(p)

    def _walk(f, node=Stepper):
        p = f.fresh("p")
        return _steps_then_fill(f, p, f.read("idx", Var(p)), Spike(f.fill, f.child(Var(p))), node)

    protocols = {"walk": _walk, "gallop": lambda f: SparseList._walk(f, Jumper),
                 "follow": _follow}


@level
class SparseBand(Level):
    """One contiguous stored block per fiber; empty fiber has start = stop+1."""

    size: int
    start: List[int]
    stop: List[int]
    ofs: List[int]
    child: Level
    kind = "sband"

    @classmethod
    def assemble(cls, a, k, fibers):
        ss, size = a.span[k + 1], a.dims[k]
        start, stop, ofs, children = [], [], [1], []
        for b, stored in _masked_fibers(a, k, fibers):
            first = stored.find(1)
            lo, hi = (1, 0) if first < 0 else (first + 1, stored.rfind(1) + 1)
            start.append(lo)
            stop.append(hi)
            children += range(b + (lo - 1) * ss, b + hi * ss, ss)
            ofs.append(len(children) + 1)
        return cls(size, start, stop, ofs, a.level(k + 1, children)).recorded(
            start=scan_facts(start), stop=scan_facts(stop), ofs=_ascending(ofs))

    def entries(self, p):
        a, b, o = self.start[p - 1], self.stop[p - 1], self.ofs[p - 1]
        return zip(range(a, b + 1), range(o, o + b - a + 1))

    def check(self, nfibers, where) -> int:
        if not (len(self.start) == len(self.stop) == nfibers and len(self.ofs) == nfibers + 1):
            raise FormatError(f"{where}: band start/stop/ofs sized wrong")
        for p in range(nfibers):
            width = max(0, self.stop[p] - self.start[p] + 1)
            if self.ofs[p + 1] - self.ofs[p] != width:
                raise FormatError(f"{where}: band value offsets disagree at fiber {p + 1}")
        return self.ofs[-1] - 1

    @classmethod
    def locate(cls, f, i):
        a, b = f.get("start"), f.get("stop")
        return (), Call("and", (le(a, i), le(i, b))), iadd(f.get("ofs"), isub(i, a))

    def _walk(f):
        a, b = f.get("start"), f.get("stop")
        sym = f.fresh("i")
        body = Lookup(sym, f.child(SparseBand.locate(f, Var(sym))[2]))
        return Pipeline((Phase(Run(f.fill), stop=isub(a, ONE)), Phase(body, stop=b),
                         Phase(Run(f.fill))))

    protocols = {"walk": _walk, "follow": _walk}


@level
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
    Disorder = OverlappingBlocks

    @classmethod
    def assemble(cls, a, k, fibers):
        ss, size = a.span[k + 1], a.dims[k]
        pos, idx, ofs, children = [1], [], [1], []
        for b, stored in _masked_fibers(a, k, fibers):
            got = list(compress(range(1, size + 1), stored))
            # a block ends at each stored index whose successor is not stored
            ends = [n for n, i in enumerate(got, 1) if n == len(got) or got[n] != i + 1]
            idx += [got[n - 1] for n in ends]
            ofs += [len(children) + n + 1 for n in ends]
            children += [b + (i - 1) * ss for i in got]
            pos.append(len(idx) + 1)
        return cls(size, pos, idx, ofs, a.level(k + 1, children)).recorded(
            pos=_ascending(pos), idx=_fibered(pos, idx), ofs=_ascending(ofs))

    def entries(self, p):
        for b in range(self.pos[p - 1], self.pos[p]):
            lo, hi, end = self.ofs[b - 1], self.ofs[b], self.idx[b - 1]
            yield from zip(range(end - (hi - lo) + 1, end + 1), range(lo, hi))

    def check(self, nfibers, where) -> int:
        _check_pos(self.pos, nfibers, where)
        if len(self.ofs) != len(self.idx) + 1:
            raise FormatError(f"{where}: block ofs/idx length mismatch")
        for b, (lo, hi) in enumerate(zip(self.ofs, self.ofs[1:]), 1):
            if hi <= lo:
                raise OverlappingBlocks(f"{where}: block {b} is empty")
        return self.ofs[-1] - 1

    @staticmethod
    def _block(f, b, i):
        """First index of block b (idx[b] is its last), and the child position
        of index i in the block."""
        start = iadd(isub(f.read("idx", b), isub(f.read("ofs", iadd(b, ONE)), f.read("ofs", b))), ONE)
        return start, iadd(f.read("ofs", b), isub(i, start))

    @classmethod
    def locate(cls, f, i):
        b = f.fresh("b")
        _, hi = f.window()
        start, at = cls._block(f, Var(b), i)
        return ((b, f.search(i)),), Call("and", (le(Var(b), isub(hi, ONE)), le(start, i))), at

    def _walk(f):
        b, sym = f.fresh("b"), f.fresh("i")
        start, at = SparseVBL._block(f, Var(b), Var(sym))
        block = Pipeline((Phase(Run(f.fill), stop=isub(start, ONE)), Phase(Lookup(sym, f.child(at)))))
        return _steps_then_fill(f, b, f.read("idx", Var(b)), block)

    protocols = {"walk": _walk}


@level
class RepeatRLE(Level):
    """Run-length-encoded leaf; runs tile each fiber, final run ends at size.
    A fiber's entries are its runs: (last index, run position)."""

    size: int
    pos: List[int]
    idx: List[int]
    val: List[Value]
    kind = "rle"
    writer = RLEWriter
    Disorder = UnsortedIndices

    @classmethod
    def assemble(cls, a, k, fibers):
        """Runs continue while a cell equals its predecessor and shares its
        type. Each fiber's slice goes through `itertools.groupby`, keyed by
        (value, type) only when the payload mixes types. groupby takes an
        identical object as equal without comparing; for every value but NaN
        that is the same relation, so NaN runs are split into single cells."""
        size, data = a.dims[k], a.data
        pos, idx, val = [1], [], []
        for b in fibers:
            vals = data[b:b + size]
            if len(a.types) > 1:
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
        facts = {"pos": _ascending(pos), "idx": _fibered(pos, idx)}
        if len(fibers) * size == len(data):  # the runs cover the payload and share its types
            facts["val"] = scan_facts(val, a.types)
        return cls(size, pos, idx, val).recorded(**facts)

    entries = _listed_entries

    def cells(self) -> int:
        return self.size

    def expand(self, first, last, fill) -> list:
        """Each run's value repeated over its length, which is its end less
        the end before it in its fiber, for all the fibers in one C-level
        pass."""
        lo, hi = self.pos[first - 1] - 1, self.pos[last - 1] - 1
        ends = self.idx[lo:hi]
        before = [0, *ends[:-1]]
        for start in self.pos[first:last - 1]:  # each later fiber's runs start from 0
            if start - 1 < hi:
                before[start - 1 - lo] = 0
        return list(chain.from_iterable(map(repeat, self.val[lo:hi], map(sub, ends, before))))

    def check(self, nfibers, where) -> int:
        _check_pos(self.pos, nfibers, where)
        if len(self.idx) != len(self.val):
            raise FormatError(f"{where}: run idx/val length mismatch")
        for p in range(1, nfibers + 1):
            end = self.idx[self.pos[p] - 2] if self.pos[p] > self.pos[p - 1] else 0
            if end != self.size:
                raise RunCoverage(f"{where}: runs of fiber {p} end at {end}, not at size {self.size}")
        return 0

    @classmethod
    def locate(cls, f, i):
        r = f.fresh("r")
        return ((r, f.search(i)),), None, Var(r)

    def _walk(f):
        r = f.fresh("r")
        return _steps(f, r, f.read("idx", Var(r)), Run(f.read("val", Var(r))))

    protocols = {"walk": _walk, "follow": _follow}


@level
class Element(Level):
    """Scalar leaf: one value per fiber."""

    val: List[Value]
    kind = "elem"
    writer = DenseWriter  # a rank-0 output
    Disorder = None

    @classmethod
    def assemble(cls, a, k, fibers):
        return cls([a.data[b] for b in fibers])

    def cells(self) -> int:
        return 1

    def expand(self, first, last, fill) -> list:
        return self.val[first - 1:last - 1]

    def check(self, nfibers, where) -> int:
        if len(self.val) != nfibers:
            raise FormatError(f"{where}: element stores {len(self.val)} of {nfibers} values")
        return 0

    @classmethod
    def locate(cls, f, i):
        return (), None, f.pos
