"""Layered end-to-end benchmark for coil.

    python3 benchmarks/run.py --workload corpus_sweep --seed 1 --seconds 20 --trace 0

Runs the named workload (see workloads.py) as a closed loop with one client:
one process, no threads, the next job starts when the previous one ends.
Whole passes over the workload's job list run until --seconds have passed.
Every job's outputs are checked; a job that raises or mismatches is counted
as failed and the run goes on.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer split, from passes run with spans around
coil's layer entry points (odd passes) against untraced passes (even ones).
The line before it records the run's environment. Spans of a traced run are
written to .bench_build/ when it ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
SETUP_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "compile_s.p50": "s",
    "run_s.p50": "s",
    "ir_stmts": "lines",
    "exec_ops": "ops",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "parser.s": "s/pass",
    "parser.calls": "count/pass",
    "tensorio.s": "s/pass",
    "tensorio.entries": "count/pass",
    "storage.s": "s/pass",
    "storage.to_dense_s": "s/pass",
    "storage.cells_scanned": "count/pass",
    "storage.entries_stored": "count/pass",
    "storage.stored_frac": "ratio",
    "lower.s": "s/pass",
    "lower.ir_stmts": "lines/pass",
    "lower.ir_loops": "count/pass",
    "lower.errors": "count/pass",
    "interp.s": "s/pass",
    "interp.ns_per_op": "ns/op",
    "interp.loop_iterations": "count/pass",
    "interp.buffer_reads": "count/pass",
    "interp.buffer_writes": "count/pass",
    "interp.searches": "count/pass",
    "interp.compares": "count/pass",
    "interp.errors": "count/pass",
    "writers.freeze_s": "s/pass",
    "writers.entries_out": "count/pass",
    "oracle.s": "s/pass",
    "oracle.calls": "count/pass",
    "trace.job_s": "s/pass",
    "trace.other_s": "s/pass",
    "trace.overhead_frac": "ratio",
}


def _import_coil():
    """Import coil from this checkout's sources, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import coil

    if Path(coil.__file__).resolve().parent != (SRC / "coil").resolve():
        raise ImportError(f"coil imported from {coil.__file__}, not from {SRC}")
    import coil.api
    import coil.parser
    import coil.target
    import coil.tensorio

    import spans
    import workloads

    return coil, spans, workloads


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "coil").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Bench:
    def __init__(self, coil, spans, workloads):
        self.coil = coil
        self.lt = spans
        self.wl = workloads

    def run_step(self, step):
        """Kernel text + inputs -> frozen outputs and the outputs they must equal.

        Returns (compile seconds, run seconds, compiled, result, expected)."""
        api, InputSpec = self.coil.api, self.coil.api.InputSpec
        t0 = time.perf_counter()
        stmt = self.coil.parser.parse(step.kernel)
        inputs = dict(step.inputs)
        for name, (path, fmt, protocols) in step.mtx.items():
            dims, data, dtype = self.coil.tensorio.matrix_market_dense(path)
            inputs[name] = InputSpec(dims, data, fmt, 0.0 if dtype == "float" else 0,
                                     dtype, protocols)
        compiled = api.compile_kernel(stmt, inputs, step.outputs, step.params)
        t1 = time.perf_counter()
        result = api.execute(compiled, step.params)
        t2 = time.perf_counter()
        want = step.expected
        if want is None:
            want = api.oracle_outputs(stmt, inputs, step.outputs, step.params)
        return t1 - t0, t2 - t1, compiled, result, want

    def run_job(self, job, job_id, tracer, keep):
        """One job; returns (job_s, compile_s, run_s, error or None).

        Outputs are compared after the job's timing ends. With `keep`, the
        compiled programs and counters are appended to it for the code-size
        and operation counts, which are also taken outside the timing."""
        compile_s = run_s = 0.0
        error = None
        checks = []
        t0 = time.perf_counter()
        with tracer.job(job_id) if tracer else nullcontext():
            for step in job.steps:
                try:
                    c, r, compiled, result, want = self.run_step(step)
                except Exception as ex:  # a failing job is counted, never fatal
                    error = error or f"{job.label}: {type(ex).__name__}: {ex}"
                    continue
                compile_s += c
                run_s += r
                checks.append((result.dense, want))
                if keep is not None:
                    keep.append((compiled.program, result.counters))
        job_s = time.perf_counter() - t0
        for got, want in checks:
            if not want or not all(name in got and self.wl.values_match(got[name], want[name])
                                   for name in want):
                error = error or f"{job.label}: output mismatch"
        return job_s, compile_s, run_s, error

    def run(self, name, seed, seconds, trace, import_s):
        wl = self.wl.WORKLOADS[name]
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"{name}-{seed}-{os.getpid()}"
        workdir.mkdir()
        try:
            return self._run(wl, seed, seconds, trace, import_s, str(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _run(self, wl, seed, seconds, trace, import_s, workdir):
        setup = []
        for _ in range(SETUP_REPS):
            jobs = None  # let the previous repetition's inputs go before building more
            t0 = time.perf_counter()
            jobs = wl.build(seed, workdir)
            for step in wl.warmup(jobs):
                try:
                    self.run_step(step)
                except Exception:  # the same step fails, and is counted, when measured
                    pass
            setup.append(time.perf_counter() - t0)
        gc.collect()  # set-up garbage is not collected inside the timed jobs

        tracer = self.lt.Tracer() if trace else None
        kept = []
        samples = {False: [], True: []}  # traced? -> [(job_s, compile_s, run_s)]
        errors = []
        passes = traced_passes = 0
        t_start = time.perf_counter()
        while passes < (2 if trace else 1) or time.perf_counter() - t_start < seconds:
            traced = trace and passes % 2 == 1
            with tracer.installed() if traced else nullcontext():
                for k, job in enumerate(jobs):
                    job_s, c, r, err = self.run_job(
                        job, passes * len(jobs) + k, tracer if traced else None,
                        kept if passes == 0 else None)
                    samples[traced].append((job_s, c, r))
                    if err is not None:
                        errors.append(err)
            passes += 1
            traced_passes += traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ir = [self.coil.target.print_ir(p).count("\n") + 1 for p, _ in kept]
        ops = sum(getattr(c, f) for _, c in kept for f in self.lt.OP_FIELDS)
        attempted = len(samples[False]) + len(samples[True])
        info = {
            "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _commit(), "src_sha256": _src_digest(),
            "jobs_per_pass": len(jobs), "passes": passes,
            "job_samples": len(samples[False]), "errors": errors[:5],
        }
        if wl.name == "spmspv_large":
            info["ref.scipy_spmv_s"] = scipy_spmv_s(self.coil, self.wl, jobs)

        def jobs_per_s(rows):
            return len(rows) / sum(r[0] for r in rows)

        if not trace:
            rows = samples[False]
            metrics = {
                "setup_s": import_s + statistics.median(setup),
                "jobs_per_s": jobs_per_s(rows),
                "job_s.p50": statistics.median(r[0] for r in rows),
                "compile_s.p50": statistics.median(r[1] for r in rows),
                "run_s.p50": statistics.median(r[2] for r in rows),
                "ir_stmts": sum(ir),
                "exec_ops": ops,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
        else:
            trace_path = OUT / f"trace-{wl.name}-{seed}.jsonl"
            tracer.write(trace_path)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
            metrics = self.layer_metrics(tracer, traced_passes, samples, kept, ir)
            metrics["trace.overhead_frac"] = (
                1.0 - jobs_per_s(samples[True]) / jobs_per_s(samples[False]))
            units = PER_LAYER_UNITS
        return info, {
            "correct": not errors,
            "attempted": attempted,
            "failed": len(errors),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    def layer_metrics(self, tracer, n, samples, kept, ir):
        """Per-pass layer self times and counts, averaged over the traced passes."""
        selft = tracer.self_times()
        layer = {}
        for span, s in selft.items():
            key = span.split(".")[0]
            layer[key] = layer.get(key, 0.0) + s
        counts = tracer.counts
        interp_ops = sum(counts[f"interp.{f}"] for f in self.lt.OP_FIELDS)
        m = {f"{key}.s": layer.get(key, 0.0) / n for key in self.lt.LAYERS}
        m["writers.freeze_s"] = m.pop("writers.s")
        m["storage.to_dense_s"] = selft.get("storage.to_dense", 0.0) / n
        m["interp.ns_per_op"] = layer.get("interp", 0.0) / max(interp_ops, 1) * 1e9
        m["storage.stored_frac"] = (counts["storage.entries_stored"]
                                    / max(counts["storage.cells_scanned"], 1))
        m["lower.ir_stmts"] = float(sum(ir))
        m["lower.ir_loops"] = float(sum(self.coil.target.count_loops(p) for p, _ in kept))
        m["trace.job_s"] = sum(r[0] for r in samples[True]) / n
        m["trace.other_s"] = layer.get("job", 0.0) / n
        for key in PER_LAYER_UNITS:
            if key not in m and not key.startswith("trace."):
                m[key] = counts[key] / n
        return m


def scipy_spmv_s(coil, workloads, jobs):
    """Informational: median seconds of the same large spmspv product in
    scipy.sparse (CSR times dense vector), or None where scipy is absent."""
    try:
        import numpy as np
        import scipy.sparse as sp
    except ImportError:
        return None
    step = next(s for j in jobs for s in j.steps
                if s.kernel == workloads.SPMSPV and s.expected is not None)
    path = step.mtx["A"][0]
    dims, triples, _ = coil.tensorio.read_matrix_market(path)
    rows, cols, vals = zip(*triples)
    a = sp.csr_matrix((vals, (np.array(rows) - 1, np.array(cols) - 1)), shape=dims)
    x = np.array(step.inputs["x"].data)
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        y = a @ x
        times.append(time.perf_counter() - t0)
    if not np.allclose(y, step.expected["y"], rtol=1e-12, atol=0.0):
        return None
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coil" / "__init__.py").is_file():
        print(f"error: no coil sources at {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # every run compiles the same sources at import
    t0 = time.perf_counter()
    coil, spans, workloads = _import_coil()
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    info, result = Bench(coil, spans, workloads).run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
