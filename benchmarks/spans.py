"""Layer spans for the traced benchmark run, installed from outside coil.

`Tracer.installed()` replaces coil's layer entry points with timing wrappers
for the duration of a `with` block and restores the originals afterwards; no
coil source is edited. Each call records a span (name, start, end, parent,
job) in memory, and counts are taken at the same boundaries. A layer's self
time is its spans' durations minus the part covered by child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import coil.api
import coil.parser
import coil.tensorio
import coil.writers

LAYERS = ("parser", "tensorio", "storage", "lower", "interp", "writers", "oracle")

# Scalar ExecCounters fields; their sum is the benchmark's `exec_ops`.
OP_FIELDS = ("loop_iterations", "buffer_reads", "buffer_writes", "multiplies",
             "adds", "searches", "compares")


def leaf_entries(tensor) -> int:
    """Values stored in the tensor's leaf level (Element or run-length)."""
    return len(tensor.levels()[-1].val)


def _count_parse(counts, args, out):
    counts["parser.calls"] += 1


def _count_mtx(counts, args, out):
    dims, data, _ = out
    counts["tensorio.entries"] += len(data) - data.count(0)


def _count_from_dense(counts, args, out):
    cells = 1
    for d in args[1]:
        cells *= d
    counts["storage.cells_scanned"] += cells
    counts["storage.entries_stored"] += leaf_entries(out)


def _count_interp(counts, args, machine):
    c = machine.counters
    for f in OP_FIELDS:
        counts[f"interp.{f}"] += getattr(c, f)


def _count_freeze(counts, args, out):
    counts["writers.entries_out"] += leaf_entries(out)


def _count_oracle(counts, args, out):
    counts["oracle.calls"] += 1


def _entry_points():
    """(owner, attribute, span name, counter) for every wrapped entry point.

    coil.api imported its helpers by name, so the api-level bindings are the
    ones the pipeline calls; parse and the MatrixMarket reader are wrapped in
    their own modules, through which the benchmark calls them."""
    points = [
        (coil.parser, "parse", "parser.parse", _count_parse),
        (coil.tensorio, "matrix_market_dense", "tensorio.matrix_market_dense", _count_mtx),
        (coil.api, "from_dense", "storage.from_dense", _count_from_dense),
        (coil.api, "to_dense", "storage.to_dense", None),
        (coil.api, "lower_program", "lower.lower_program", None),
        (coil.api, "run_program", "interp.run_program", _count_interp),
        (coil.api, "oracle_outputs", "oracle.oracle_outputs", _count_oracle),
    ]
    for cls in [coil.writers.Writer, *coil.writers.Writer.__subclasses__()]:
        if "freeze" in vars(cls):
            points.append((cls, "freeze", "writers.freeze", _count_freeze))
    return points


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.counts = defaultdict(float)
        self._stack = []
        self._job = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; layer spans opened inside become its children."""
        self._job = job_id
        idx = self._open("job")
        try:
            yield
        finally:
            self._close(idx)
            self._job = None

    def wrap(self, name: str, fn, count):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in _entry_points():
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """Self seconds per span name: duration minus child-span durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
