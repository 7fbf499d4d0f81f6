"""Runtime output writers: dense buffers plus ascending-append sparse-list and
run-length writers. Append writers merge repeated writes to the same index,
pad gaps with fill, and seal their position structure on finalize.

The level class of an output's last mode names its writer (`Level.writer`);
the writer's compile-time plan (`unfurl.WriterPlan`) names its buffers and
turns the sealed buffers into a Tensor."""

from __future__ import annotations

import math
from typing import Dict

from .interp import Buf, InterpError
from .values import EvalError, apply_op, coercer


def _combine(op: str, old, new):
    if op == "set":
        return new
    return apply_op(op, [old, new])


class Writer:
    """One output's runtime buffers and the hooks the lowered program calls on
    them: `init`, the writes, then `finalize`; `freeze` seals the output into
    a Tensor.

    Outer modes are dense. An append writer fills the fibers of the last mode
    in ascending order, sealing each with the next entry of its `pos` buffer;
    `cur_fiber` is the fiber being filled and `fiber_base` the number of
    entries before it.

    The hooks do constant work per entry. The output's constants are bound at
    construction: the last mode's `size`, a `coerce` for its dtype and the
    `pos`/`idx`/`val` data lists, which `init` resets in place. `prefix` is
    the index prefix of the fiber being filled, so a write into that fiber
    neither linearizes nor bounds-checks its prefix again, and the writer
    advances only when the fiber changes."""

    appends = False  # written through append hooks, in ascending index order
    runs = False     # also takes whole-run writes (`run_set`)

    def __init__(self, plan):
        self.plan = plan
        field = {f: Buf(name, [], plan.dtype if f == "val" else None)
                 for (_, f), name in plan.buffers.items()}
        self.buffers: Dict[str, Buf] = {b.name: b for b in field.values()}
        self.pos, self.idx, self.val = (field[f].data if f in field else None
                                        for f in ("pos", "idx", "val"))
        self.size = plan.dims[-1] if plan.dims else 1
        self.nfibers = math.prod(plan.dims[:-1])
        self.fill = plan.fill
        self.coerce = coercer(plan.dtype)
        self.init()

    def init(self):
        self.pos[:] = [1]
        self.idx[:] = []
        self.val[:] = []
        self.cur_fiber = 1
        self.fiber_base = 0
        self.prefix = None

    def finalize(self):
        self._advance_to(self.nfibers + 1)
        self.prefix = None

    def append(self, idx, op, value):
        raise InterpError(f"output {self.plan.name} does not accept appends")

    def run_set(self, prefix, lo, hi, value):
        raise InterpError(f"output {self.plan.name} does not accept run writes")

    def freeze(self):
        self.finalize()
        return self.plan.tensor({name: list(b.data) for name, b in self.buffers.items()})

    def _prefix_pos(self, prefix) -> int:
        pos = 0
        for k, i in enumerate(prefix):
            d = self.plan.dims[k]
            if not (1 <= i <= d):
                raise InterpError(f"write index {i} out of bounds for {self.plan.name}")
            pos = pos * d + (i - 1)
        return pos + 1

    def _enter(self, f: int, prefix):
        """Fill fiber f, of index prefix `prefix`, from now on."""
        self._advance_to(f)
        self.prefix = prefix[:]

    def _advance_to(self, f: int):
        if f < self.cur_fiber:
            raise InterpError(
                f"non-ascending write to append-only output {self.plan.name}")
        while self.cur_fiber < f:
            self._seal()

    def _seal(self):
        self.pos.append(len(self.idx) + 1)
        self.cur_fiber += 1
        self.fiber_base = len(self.idx)


class DenseWriter(Writer):
    """One row-major value buffer, which the program writes directly."""

    def init(self):
        self.val[:] = [self.fill] * math.prod(self.plan.dims)

    def finalize(self):
        pass


class SparseListWriter(Writer):
    """Ascending-index append into the last mode."""

    appends = True

    def append(self, idx, op, value):
        """EvalError from coercion or combination is raised as InterpError."""
        try:
            prefix, i = idx[:-1], idx[-1]
            f = None if prefix == self.prefix else self._prefix_pos(prefix)
            if not (1 <= i <= self.size):
                raise InterpError(f"write index {i} out of bounds for {self.plan.name}")
            if f is not None:
                self._enter(f, prefix)
            value = self.coerce(value)
            ix, val = self.idx, self.val
            last = ix[-1] if len(ix) > self.fiber_base else 0
            if i > last:
                ix.append(i)
                val.append(value if op == "set"
                           else self.coerce(_combine(op, self.fill, value)))
            elif i == last:
                val[-1] = self.coerce(_combine(op, val[-1], value))
            else:
                raise InterpError(
                    f"non-ascending write to append-only output {self.plan.name}")
        except EvalError as ex:
            raise InterpError(str(ex)) from None


class RLEWriter(Writer):
    """Run-coalescing ascending writer; accepts whole-run writes. `last_end`
    is the last index the fiber's runs cover."""

    appends = runs = True

    def init(self):
        super().init()
        self.last_end = 0

    def _push_run(self, end: int, value):
        """Cover the fiber up to `end` with `value`: extend the last run when
        it holds the same value of the same type, else start a run."""
        val = self.val
        if len(val) > self.fiber_base and val[-1] == value and type(val[-1]) is type(value):
            self.idx[-1] = end
        else:
            self.idx.append(end)
            val.append(value)
        self.last_end = end

    def _seal(self):
        if self.last_end < self.size:
            self._push_run(self.size, self.fill)
        super()._seal()
        self.last_end = 0

    def append(self, idx, op, value):
        self.run_set(idx[:-1], idx[-1], idx[-1], value, op=op)

    def run_set(self, prefix, lo: int, hi: int, value, op: str = "set"):
        """Set indices lo..hi of the fiber at `prefix` to `value`, and return
        the number of buffer writes this counts as: 0 for the empty run
        lo = hi + 1, which writes nothing, else 1. (A walk emits an empty
        run before adjacent stored entries.) EvalError from coercion or
        combination is raised as InterpError."""
        if lo == hi + 1 and 1 <= lo <= self.size + 1:
            return 0
        try:
            f = None if prefix == self.prefix else self._prefix_pos(prefix)
            if not (1 <= lo <= hi <= self.size):
                raise InterpError(
                    f"run write {lo}:{hi} out of bounds for {self.plan.name}")
            if f is not None:
                self._enter(f, prefix)
            value = self.coerce(value)
            if lo <= self.last_end:
                if op == "set" or lo != self.last_end or lo != hi:
                    raise InterpError(
                        f"non-ascending write to append-only output {self.plan.name}")
                # combining update at the most recent index: split the run if needed
                ix, val = self.idx, self.val
                v = self.coerce(_combine(op, val[-1], value))
                prev_end = ix[-2] if len(ix) > self.fiber_base + 1 else 0
                if ix[-1] - prev_end == 1:
                    val[-1] = v
                else:
                    ix[-1] = lo - 1
                    ix.append(lo)
                    val.append(v)
                return 1
            if lo > self.last_end + 1:
                self._push_run(lo - 1, self.fill)
            self._push_run(hi, value if op == "set"
                           else self.coerce(_combine(op, self.fill, value)))
            return 1
        except EvalError as ex:
            raise InterpError(str(ex)) from None
