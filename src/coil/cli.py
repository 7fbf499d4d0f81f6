"""Command-line driver: compile | run | check | bench.

Tensor bindings use one flag per tensor:

    --tensor A=matrix.mtx,format=dense.splist,fill=0
    --tensor x=random:dims=100,density=0.1,dist=uniform01,seed=4,format=splist
    --tensor y=out:format=splist,fill=0.0
    --tensor v=vec.txt

`check` runs randomized trials through the compiled kernel and the dense
oracle and fails on any disagreement; `bench` reports operation counters (and
informational wall-clock) per protocol variant. `run --json` and `bench`
report the backend that ran the program, whether it was lowered afresh or
reused ("lowering"), and, for generated code, whether the code was generated
for the run or reused ("codegen", null when interpreted).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .api import (
    Compiled,
    InputSpec,
    OutputSpec,
    compile_kernel,
    execute,
    oracle_outputs,
)
from .cin import CinError, print_stmt
from .interp import InterpError
from .oracle import OracleError, max_rel_error
from .parser import parse
from .rewrite import simplify
from .storage import FormatError
from .tensorio import (TensorIOError, matrix_market_dense, read_dense_text, reading,
                       write_dense_text)
from .unfurl import CompileError
from .values import MISSING, value_repr

REL_TOL = 1e-12


class CliError(Exception):
    pass


@dataclass
class RandomSpec:
    dims: List[int]
    density: float = 0.1
    dist: str = "uniform01"
    seed: Optional[int] = None
    format: List[str] = field(default_factory=lambda: ["dense"])
    fill: object = 0.0


@dataclass
class JobSpec:
    kernel_text: str
    inputs: Dict[str, InputSpec]
    randoms: Dict[str, RandomSpec]
    outputs: Dict[str, OutputSpec]
    params: Dict[str, object]
    protocols: Dict[str, Dict[int, str]] = field(default_factory=dict)  # tensor -> mode -> name


def _parse_value(text: str):
    t = text.strip()
    if t == "true":
        return True
    if t == "false":
        return False
    if t == "missing":
        return MISSING
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        raise CliError(f"cannot parse value {text!r}")


def _parse_kv(pairs: List[str]) -> dict:
    out = {}
    for p in pairs:
        if "=" not in p:
            raise CliError(f"expected key=value, got {p!r}")
        k, v = p.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _parse_number(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise CliError(f"cannot parse {what} {text!r}") from None


def _parse_dims(text: str) -> List[int]:
    if not text:
        return []
    return [_parse_number(int, x, "dimension") for x in text.lower().split("x")]


def parse_tensor_spec(name: str, spec: str):
    """Returns ('input', InputSpec) | ('random', RandomSpec) | ('out', OutputSpec)."""
    head, *pairs = spec.split(",")
    kind, _, rest = head.partition(":")
    if kind in ("random", "out"):
        head = kind
        if rest:  # the first key may ride on the head: out:format=splist
            pairs.insert(0, rest)
    kv = _parse_kv(pairs)
    fmt = kv.pop("format", None)
    fmt = fmt.split(".") if fmt else None
    fill = _parse_value(kv.pop("fill")) if "fill" in kv else None
    dtype = kv.pop("dtype", None)

    if head == "random":
        dims = _parse_dims(kv.pop("dims", ""))
        if not dims:
            raise CliError(f"tensor {name}: random spec needs dims=")
        rs = RandomSpec(dims)
        rs.density = _parse_number(float, kv.pop("density", "0.1"), "density")
        if not 0.0 <= rs.density <= 1.0:  # nan fails too
            raise CliError(f"tensor {name}: density must lie in [0, 1], got {rs.density}")
        rs.dist = kv.pop("dist", "uniform01")
        if "seed" in kv:
            rs.seed = _parse_number(int, kv.pop("seed"), "seed")
        if fmt:
            rs.format = fmt
        if fill is not None:
            rs.fill = fill
        if kv:
            raise CliError(f"tensor {name}: unknown random keys {sorted(kv)}")
        return "random", rs

    if head == "out":
        dims = _parse_dims(kv.pop("dims", "")) or None
        os_ = OutputSpec(dims=dims)
        if fmt:
            os_.format = fmt
        if fill is not None:
            os_.fill = fill
        if dtype:
            os_.dtype = dtype
        if kv:
            raise CliError(f"tensor {name}: unknown output keys {sorted(kv)}")
        return "out", os_

    # file-backed input
    if head.endswith(".mtx"):
        dims, data, ftype = matrix_market_dense(head)
    else:
        dims, data, ftype = read_dense_text(head)
    ins = InputSpec(dims, data, fmt or ["dense"], fill if fill is not None else _zero_of(ftype),
                    dtype or ftype)
    if kv:
        raise CliError(f"tensor {name}: unknown keys {sorted(kv)}")
    return "input", ins


def _zero_of(dtype: str):
    return {"float": 0.0, "int": 0, "bool": False}[dtype]


def gen_random(rs: RandomSpec, seed: int) -> InputSpec:
    rng = random.Random(rs.seed + seed if rs.seed is not None else seed)
    n = 1
    for d in rs.dims:
        n *= d
    if rs.dist == "uniform01":
        draw = lambda: rng.random()
        fill, dtype = 0.0, "float"
    elif rs.dist == "ints":
        draw = lambda: rng.randint(1, 9)
        fill, dtype = 0, "int"
    elif rs.dist == "bool":
        draw = lambda: True
        fill, dtype = False, "bool"
    else:
        raise CliError(f"unknown random dist {rs.dist!r}")
    if rs.fill != 0.0:
        fill = rs.fill
    data = [draw() if rng.random() < rs.density else fill for _ in range(n)]
    return InputSpec(rs.dims, data, list(rs.format), fill, dtype)


def build_job(args) -> JobSpec:
    with reading(args.kernel, CliError) as fh:
        text = fh.read()
    inputs: Dict[str, InputSpec] = {}
    randoms: Dict[str, RandomSpec] = {}
    outputs: Dict[str, OutputSpec] = {}
    for t in args.tensor or []:
        if "=" not in t:
            raise CliError(f"--tensor expects NAME=SPEC, got {t!r}")
        name, spec = t.split("=", 1)
        kind, parsed = parse_tensor_spec(name.strip(), spec.strip())
        if kind == "input":
            inputs[name] = parsed
        elif kind == "random":
            randoms[name] = parsed
        else:
            outputs[name] = parsed
    params = {}
    for p in args.param or []:
        if "=" not in p:
            raise CliError(f"--param expects NAME=VALUE, got {p!r}")
        k, v = p.split("=", 1)
        params[k.strip()] = _parse_value(v)
    job = JobSpec(text, inputs, randoms, outputs, params)
    for proto in args.protocol or []:
        _apply_protocol(job, proto)
    return job


def _apply_protocol(job: JobSpec, spec: str):
    try:
        lhs, proto = spec.split("=", 1)
        tensor, mode = lhs.rsplit(".", 1)
        mode = int(mode)
    except ValueError:
        raise CliError(f"--protocol expects TENSOR.MODE=NAME, got {spec!r}")
    if tensor not in job.inputs and tensor not in job.randoms:
        raise CliError(f"--protocol names unknown input tensor {tensor!r}")
    job.protocols.setdefault(tensor, {})[mode] = proto.strip()


def _materialize_inputs(job: JobSpec, seed: int) -> Dict[str, InputSpec]:
    inputs = dict(job.inputs)
    for name, rs in job.randoms.items():
        inputs[name] = gen_random(rs, seed + _stable_hash(name))
    for name, protos in job.protocols.items():
        inputs[name].protocols.update(protos)
    return inputs


def _stable_hash(name: str) -> int:
    h = 0
    for ch in name:
        h = (h * 31 + ord(ch)) % 1000003
    return h


def _compile(job: JobSpec, inputs, stages=False) -> Compiled:
    stmt = parse(job.kernel_text)
    return compile_kernel(stmt, inputs, job.outputs, job.params, stages=stages)


def cmd_compile(args) -> int:
    job = build_job(args)
    inputs = _materialize_inputs(job, args.seed)
    out_lines = []
    if args.dump_simplified:
        stmt = simplify(parse(job.kernel_text))
        out_lines.append("# simplified kernel")
        out_lines.append(print_stmt(stmt))
    compiled = _compile(job, inputs, stages=args.dump_stages)
    if args.dump_stages and compiled.stages:
        out_lines.append("# lowering stages")
        out_lines.extend(compiled.stages)
    out_lines.append(compiled.ir_text())
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    job = build_job(args)
    inputs = _materialize_inputs(job, args.seed)
    compiled = _compile(job, inputs)
    if args.dump_ir:
        print(compiled.ir_text())
    result = execute(compiled, job.params)
    report = {
        "outputs": {name: _jsonable(vals) for name, vals in result.dense.items()},
        "counters": result.counters.as_dict(),
        "backend": result.backend,
        "lowering": compiled.lowering,
        "codegen": result.codegen,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for name, vals in result.dense.items():
            print(f"{name}: {' '.join(value_repr(v) for v in vals)}")
        print(json.dumps(result.counters.as_dict()))
    if args.out:
        for name, t in result.outputs.items():
            write_dense_text(f"{args.out}.{name}.txt", t.dims, result.dense[name])
    return 0


def _jsonable(vals):
    return [None if v is MISSING else v for v in vals]


def cmd_check(args) -> int:
    job = build_job(args)
    stmt = parse(job.kernel_text)
    worst_overall = 0.0
    for trial in range(args.trials):
        seed = args.seed + trial
        inputs = _materialize_inputs(job, seed)
        compiled = compile_kernel(stmt, inputs, job.outputs, job.params)
        result = execute(compiled, job.params)
        want = oracle_outputs(stmt, inputs, job.outputs, job.params)
        worst = 0.0
        ok = set(result.dense) == set(want)
        if ok:
            for name in want:
                err = max_rel_error(result.dense[name], want[name])
                worst = max(worst, err)
            ok = worst <= REL_TOL
        print(f"trial {trial}: max_rel_err={worst:.3e} {'ok' if ok else 'MISMATCH'}")
        worst_overall = max(worst_overall, worst)
        if not ok:
            replay = {
                "kernel": job.kernel_text,
                "seed": seed,
                "params": {k: _scalar_jsonable(v) for k, v in job.params.items()},
                "tensors": {
                    name: {"dims": spec.dims, "data": _jsonable(spec.data),
                           "format": spec.format,
                           "fill": _scalar_jsonable(spec.fill), "dtype": spec.dtype,
                           "protocols": {str(m): p for m, p in sorted(spec.protocols.items())}}
                    for name, spec in inputs.items()
                },
                "outputs": {
                    name: {"dims": spec.dims, "format": spec.format,
                           "fill": _scalar_jsonable(spec.fill), "dtype": spec.dtype}
                    for name, spec in job.outputs.items()
                },
                "expected": {name: _jsonable(v) for name, v in want.items()},
                "got": {name: _jsonable(v) for name, v in result.dense.items()},
            }
            path = args.replay or "coil-replay.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(replay, fh, indent=2)
            print(f"mismatch: replay written to {path}", file=sys.stderr)
            return 1
    print(f"all {args.trials} trials agree (worst rel err {worst_overall:.3e})")
    return 0


def _scalar_jsonable(v):
    return None if v is MISSING else v


def _variant(job: JobSpec) -> JobSpec:
    """A copy of `job` whose protocols a variant may set: it shares the input
    data, and has its own input specs and protocol maps, which
    `_apply_protocol` and `_materialize_inputs` update in place."""
    return replace(job, inputs={name: replace(spec, protocols=dict(spec.protocols))
                                for name, spec in job.inputs.items()},
                   protocols={name: dict(p) for name, p in job.protocols.items()})


def cmd_bench(args) -> int:
    variants: List[Tuple[str, List[str]]] = []
    for v in args.variant or []:
        if ":" not in v:
            raise CliError(f"--variant expects LABEL:PROTOSPEC[;...], got {v!r}")
        label, protos = v.split(":", 1)
        variants.append((label, [p for p in protos.split(";") if p]))
    if not variants:
        variants = [("default", [])]
    job = build_job(args)  # each --tensor file is read once, for every variant
    report = {}
    for label, protos in variants:
        vjob = _variant(job)
        for p in protos:
            _apply_protocol(vjob, p)
        inputs = _materialize_inputs(vjob, args.seed)
        compiled = _compile(vjob, inputs)
        result = None
        best = None
        for _ in range(max(1, args.trials)):
            t0 = time.perf_counter()
            result = execute(compiled, vjob.params)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        report[label] = {**result.counters.as_dict(), "backend": result.backend,
                         "lowering": compiled.lowering, "codegen": result.codegen,
                         "wall_clock_s": best}
    print(json.dumps(report, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="coil",
        description="structured-array kernel compiler with a built-in interpreter")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--kernel", required=True, help="kernel file (.cin text)")
        p.add_argument("--tensor", action="append", metavar="NAME=SPEC")
        p.add_argument("--param", action="append", metavar="NAME=VALUE")
        p.add_argument("--protocol", action="append", metavar="TENSOR.MODE=NAME")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("compile", help="lower a kernel and print the target IR")
    common(p)
    p.add_argument("--out", help="write the IR to this file instead of stdout")
    p.add_argument("--dump-stages", action="store_true")
    p.add_argument("--dump-simplified", action="store_true")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="compile and interpret once")
    common(p)
    p.add_argument("--out", metavar="PREFIX", help="also write each output to PREFIX.NAME.txt")
    p.add_argument("--dump-ir", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("check", help="compare the compiled kernel against the dense oracle")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--replay", help="path for the mismatch replay file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bench", help="report operation counters per protocol variant")
    common(p)
    p.add_argument("--trials", type=int, default=3, metavar="N",
                   help="runs per variant; wall_clock_s is the fastest. Generated code "
                        "(large inputs) is generated by the first run and reused by the "
                        "other N-1, so with N > 1 it times a reused run")
    p.add_argument("--variant", action="append", metavar="LABEL:PROTOSPEC[;...]")
    p.set_defaults(fn=cmd_bench)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CinError, CompileError, FormatError, TensorIOError, CliError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (InterpError, OracleError) as ex:
        print(f"runtime error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
