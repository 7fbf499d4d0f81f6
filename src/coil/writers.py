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
from .values import EvalError, apply_op, coerce


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
    entries before it."""

    appends = False  # written through append hooks, in ascending index order
    runs = False     # also takes whole-run writes (`run_set`)

    def __init__(self, plan):
        self.plan = plan
        field = {f: Buf(name, [], plan.dtype if f == "val" else None)
                 for (_, f), name in plan.buffers.items()}
        self.buffers: Dict[str, Buf] = {b.name: b for b in field.values()}
        self.posb, self.idxb, self.valb = (field.get(f) for f in ("pos", "idx", "val"))
        self.init()

    def init(self):
        self.posb.data[:] = [1]
        self.idxb.data[:] = []
        self.valb.data[:] = []
        self.cur_fiber = 1
        self.fiber_base = 0

    def finalize(self):
        self._advance_to(math.prod(self.plan.dims[:-1]) + 1)

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

    def _advance_to(self, f: int):
        if f < self.cur_fiber:
            raise InterpError(
                f"non-ascending write to append-only output {self.plan.name}")
        while self.cur_fiber < f:
            self._seal()

    def _seal(self):
        self.posb.data.append(len(self.idxb.data) + 1)
        self.cur_fiber += 1
        self.fiber_base = len(self.idxb.data)


class DenseWriter(Writer):
    """One row-major value buffer, which the program writes directly."""

    def init(self):
        self.valb.data[:] = [self.plan.fill] * math.prod(self.plan.dims)

    def finalize(self):
        pass


class SparseListWriter(Writer):
    """Ascending-index append into the last mode."""

    appends = True

    def append(self, idx, op, value):
        """EvalError from coercion or combination is raised as InterpError."""
        try:
            f = self._prefix_pos(idx[:-1])
            i = idx[-1]
            size = self.plan.dims[-1]
            if not (1 <= i <= size):
                raise InterpError(f"write index {i} out of bounds for {self.plan.name}")
            self._advance_to(f)
            value = coerce(self.plan.dtype, value)
            have = len(self.idxb.data) > self.fiber_base
            last = self.idxb.data[-1] if have else 0
            if have and i == last:
                self.valb.data[-1] = coerce(self.plan.dtype,
                                            _combine(op, self.valb.data[-1], value))
            elif i > last:
                self.idxb.data.append(i)
                self.valb.data.append(coerce(self.plan.dtype,
                                             _combine(op, self.plan.fill, value)))
            else:
                raise InterpError(
                    f"non-ascending write to append-only output {self.plan.name}")
        except EvalError as ex:
            raise InterpError(str(ex)) from None


class RLEWriter(Writer):
    """Run-coalescing ascending writer; accepts whole-run writes."""

    appends = runs = True

    def init(self):
        super().init()
        self.last_end = 0

    def _push_run(self, end: int, value):
        have = len(self.idxb.data) > self.fiber_base
        if have and self.valb.data[-1] == value and type(self.valb.data[-1]) is type(value):
            self.idxb.data[-1] = end
        else:
            self.idxb.data.append(end)
            self.valb.data.append(value)
        self.last_end = end

    def _seal(self):
        size = self.plan.dims[-1]
        if self.last_end < size:
            self._push_run(size, self.plan.fill)
        super()._seal()
        self.last_end = 0

    def append(self, idx, op, value):
        self.run_set(idx[:-1], idx[-1], idx[-1], value, op=op)

    def run_set(self, prefix, lo: int, hi: int, value, op: str = "set"):
        """EvalError from coercion or combination is raised as InterpError."""
        try:
            f = self._prefix_pos(prefix)
            size = self.plan.dims[-1]
            if not (1 <= lo <= hi <= size):
                raise InterpError(
                    f"run write {lo}:{hi} out of bounds for {self.plan.name}")
            self._advance_to(f)
            value = coerce(self.plan.dtype, value)
            if lo <= self.last_end:
                if op == "set" or lo != self.last_end or lo != hi:
                    raise InterpError(
                        f"non-ascending write to append-only output {self.plan.name}")
                # combining update at the most recent index: split the run if needed
                prev = self.valb.data[-1]
                prev_end = (self.idxb.data[-2]
                            if len(self.idxb.data) > self.fiber_base + 1 else 0)
                if self.idxb.data[-1] - prev_end == 1:
                    self.valb.data[-1] = coerce(self.plan.dtype, _combine(op, prev, value))
                else:
                    self.idxb.data[-1] = lo - 1
                    self.idxb.data.append(lo)
                    self.valb.data.append(coerce(self.plan.dtype, _combine(op, prev, value)))
                return
            if lo > self.last_end + 1:
                self._push_run(lo - 1, self.plan.fill)
            v = value if op == "set" else coerce(self.plan.dtype,
                                                 _combine(op, self.plan.fill, value))
            self._push_run(hi, v)
        except EvalError as ex:
            raise InterpError(str(ex)) from None
