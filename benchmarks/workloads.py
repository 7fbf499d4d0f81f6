"""Benchmark workloads: seeded inputs, jobs and their expected outputs.

A job is what one client request costs end to end: for each of its steps,
kernel text plus inputs go through parse, MatrixMarket read (for file-backed
inputs), bind, lowering, execution and writer freeze, and the frozen outputs
are checked. A step's expected outputs are either the dense oracle, run in
the job, or an independent plain-Python reference computed at set-up.

Sizes and the number of stored entries per vector or row are fixed; the seed
draws values and positions, so counts move little from seed to seed while
every seed is a fresh input. Each workload runs every layer at least once
per pass, so that no layer's time is a structural zero on any workload.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from coil.api import InputSpec, OutputSpec

REL_TOL = 1e-12


@dataclass
class Step:
    kernel: str
    inputs: Dict[str, InputSpec]
    outputs: Dict[str, OutputSpec] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    # inputs read from a MatrixMarket file in the job: name -> (path, format, protocols)
    mtx: Dict[str, tuple] = field(default_factory=dict)
    # None: compare with the dense oracle inside the job
    expected: Optional[Dict[str, list]] = None


@dataclass
class Job:
    label: str
    steps: List[Step]


@dataclass
class Workload:
    name: str
    build: Callable[[int, str], List[Job]]
    # steps run once at set-up to warm code paths; default: the whole pass
    warmup: Callable[[List[Job]], List[Step]] = lambda jobs: [s for j in jobs for s in j.steps]


def values_match(got: list, want: list) -> bool:
    """Exact for int/bool values, within 1e-12 relative error for floats."""
    if len(got) != len(want):
        return False
    for x, y in zip(got, want):
        if isinstance(x, float) or isinstance(y, float):
            if isinstance(x, bool) or isinstance(y, bool):
                return False
            if abs(x - y) > REL_TOL * max(abs(x), abs(y), 1.0):
                return False
        elif x != y or type(x) is not type(y):
            return False
    return True


def write_mtx(path: str, dims: List[int], data: list):
    """Row-major dense payload to MatrixMarket coordinate real general."""
    n, m = dims
    nz = [(k // m + 1, k % m + 1, v) for k, v in enumerate(data) if v != 0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{n} {m} {len(nz)}\n")
        fh.writelines(f"{i} {j} {v!r}\n" for i, j, v in nz)


def _vec(rng, n, density, draw=None):
    """round(n * density) stored values (at least one) at random positions."""
    out = [0.0] * n
    for j in rng.sample(range(n), max(1, round(n * density))):
        out[j] = draw() if draw else rng.random()
    return out


def _clustered_vec(rng, n, density):
    data = [0.0] * n
    budget = max(1, int(n * density))
    pos = rng.randint(0, n - 1)
    while budget > 0:
        run = rng.randint(1, budget)
        for k in range(pos, min(n, pos + run)):
            if data[k] == 0.0:
                data[k] = rng.random()
                budget -= 1
        pos = (pos + run + rng.randint(1, 3)) % n
    return data


def _runs_row(rng, w, max_run, levels):
    row = []
    while len(row) < w:
        row.extend([float(rng.randint(0, levels))] * rng.randint(1, max_run))
    return row[:w]


def _mat(rng, n, m, density, draw=None, runs=False):
    out = []
    for _ in range(n):
        out.extend(_runs_row(rng, m, 4, 4) if runs else _vec(rng, m, density, draw))
    return out


def _size(k: int, lo: int, hi: int) -> int:
    """Fixed, evenly spread size schedule over [lo, hi] for the k-th job."""
    return lo + (k * 7) % (hi - lo + 1)


# -- corpus_sweep ---------------------------------------------------------------------

DOT = "@V i C[] += A[i] * B[i]"
SPMSPV = "@V i j y[i] += A[i,j] * x[j]"
TRIANGLE = "@V i j k C[] += A[i,j] && A[j,k] && A[k,i]"
CONV1D = ("@V i j B[i] += coalesce(A[permit[offset($c - i)[j]]], 0.0)"
          " * coalesce(F[permit[j]], 0.0)")
CONV2D = ("@V i k j l C[i,k] += (A[i,k] != 0.0) * "
          "coalesce(A[permit[offset($c - i)[j]], permit[offset($c - k)[l]]], 0.0) * "
          "coalesce(F[permit[j], permit[l]], 0.0)")
CONCAT = "@V i C[i] = coalesce(A[permit[i]], B[permit[offset($na)[i]]])"
BLEND = "@V i j A[i,j] = round($alpha * B[i,j] + $beta * C[i,j])"
ALLPAIRS = ("@V k l ((O[k,l] = sqrt(R[k] + R[l] - 2 * o[]))"
            " where (@V ij o[] += A[k,ij] * A[l,ij]))")
RLE_SUM = "@V i C[] += A[i]"
RLE_SUM_2D = "@V i j C[] += A[i,j]"

VEC_CONFIGS = [
    ("splist", "walk"), ("splist", "gallop"), ("splist", "follow"),
    ("sband", "walk"), ("sband", "follow"),
    ("svbl", "walk"),
    ("rle", "walk"), ("rle", "follow"),
    ("dense", "walk"), ("dense", "follow"), ("dense", "followzero"),
]
A_CONFIGS = [
    (("dense", "splist"), "walk"), (("dense", "splist"), "gallop"),
    (("dense", "splist"), "follow"), (("dense", "svbl"), "walk"),
    (("dense", "sband"), "walk"), (("dense", "dense"), "walk"),
]
X_CONFIGS = [("splist", "walk"), ("splist", "gallop"), ("splist", "follow"),
             ("dense", "walk")]


def corpus_jobs(seed: int, workdir: str) -> List[Job]:
    """Every corpus kernel x admissible format/protocol assignment of the
    acceptance suite's oracle corpus, one small instance each (164 jobs).
    The spmspv matrices are read from MatrixMarket files, as `coil check
    --tensor A=a.mtx` does."""
    rng = random.Random(seed)
    jobs: List[Job] = []

    def add(label, kernel, inputs, outputs=None, params=None, mtx=None):
        jobs.append(Job(label, [Step(kernel, inputs, outputs or {}, params or {},
                                     mtx or {})]))

    for k, ((fa, pa), (fb, pb)) in enumerate(itertools.product(VEC_CONFIGS, repeat=2)):
        n = _size(k, 2, 24)
        a = _clustered_vec(rng, n, 0.4) if fa in ("sband", "svbl") else _vec(rng, n, 0.4)
        b = _clustered_vec(rng, n, 0.4) if fb in ("sband", "svbl") else _vec(rng, n, 0.4)
        add(f"dot/{fa}.{pa}/{fb}.{pb}", DOT,
            {"A": InputSpec([n], a, format=[fa], protocols={1: pa}),
             "B": InputSpec([n], b, format=[fb], protocols={1: pb})})

    for k, ((fa, pa), (fx, px)) in enumerate(itertools.product(A_CONFIGS, X_CONFIGS)):
        n, m = _size(k, 2, 8), _size(k + 3, 2, 12)
        path = os.path.join(workdir, f"spmspv{k}.mtx")
        write_mtx(path, [n, m], _mat(rng, n, m, 0.4))
        add(f"spmspv/{'.'.join(fa)}.{pa}/{fx}.{px}", SPMSPV,
            {"x": InputSpec([m], _vec(rng, m, 0.4), format=[fx], protocols={1: px})},
            {"y": OutputSpec(format=["splist" if k % 2 else "dense"])},
            mtx={"A": (path, list(fa), {2: pa})})

    for k, (fmt, proto) in enumerate([(("dense", "splist"), "walk"),
                                      (("dense", "splist"), "gallop"),
                                      (("dense", "dense"), "walk")]):
        n = _size(k, 2, 8)
        adj = [False] * (n * n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i * n + j] = adj[j * n + i] = True
        add(f"triangle/{'.'.join(fmt)}.{proto}", TRIANGLE,
            {"A": InputSpec([n, n], adj, format=list(fmt), fill=False, dtype="bool",
                            protocols={2: proto})},
            {"C": OutputSpec(dims=[], dtype="int", fill=0)})

    for k, fmt in enumerate(("splist", "dense", "svbl", "rle")):
        n = _size(k, 3, 20)
        add(f"conv1d/{fmt}", CONV1D,
            {"A": InputSpec([n], _vec(rng, n, 0.3), format=[fmt]),
             "F": InputSpec([3], [rng.random() for _ in range(3)])},
            {"B": OutputSpec(dims=[n])}, {"c": 2})

    for k, fmt in enumerate((("dense", "splist"), ("dense", "dense"))):
        n, m = _size(k, 3, 7), _size(k + 1, 3, 7)
        add(f"conv2d/{'.'.join(fmt)}", CONV2D,
            {"A": InputSpec([n, m], _mat(rng, n, m, 0.3), format=list(fmt)),
             "F": InputSpec([3, 3], [rng.random() for _ in range(9)])},
            {"C": OutputSpec(dims=[n, m])}, {"c": 2})

    for k, (fa, fb) in enumerate(itertools.product(("dense", "splist"), repeat=2)):
        na, nb = _size(k, 1, 10), _size(k + 2, 1, 10)
        add(f"concat/{fa}/{fb}", CONCAT,
            {"A": InputSpec([na], _vec(rng, na, 0.6), format=[fa]),
             "B": InputSpec([nb], _vec(rng, nb, 0.6), format=[fb])},
            {"C": OutputSpec(dims=[na + nb])}, {"na": na})

    for k, fmt in enumerate((("dense", "rle"), ("dense", "dense"))):
        h, w = _size(k, 1, 4), _size(k, 2, 16)
        add(f"blend/{'.'.join(fmt)}", BLEND,
            {"B": InputSpec([h, w], _mat(rng, h, w, 0.5, runs=True), format=list(fmt)),
             "C": InputSpec([h, w], _mat(rng, h, w, 0.5, runs=True), format=list(fmt))},
            {"A": OutputSpec(dims=[h, w], format=list(fmt))},
            {"alpha": 0.25, "beta": 0.75})

    for k, fmt in enumerate((("dense", "svbl"), ("dense", "splist"), ("dense", "rle"))):
        m, nn = _size(k, 2, 5), _size(k, 2, 10)
        ad = _mat(rng, m, nn, 0.5, draw=lambda: float(rng.randint(1, 9)))
        rd = [sum(ad[r * nn + c] ** 2 for c in range(nn)) for r in range(m)]
        add(f"allpairs/{'.'.join(fmt)}", ALLPAIRS,
            {"A": InputSpec([m, nn], ad, format=list(fmt)), "R": InputSpec([m], rd)},
            {"O": OutputSpec(dims=[m, m])})

    n = 24
    add("rle_sum/rle", RLE_SUM, {"A": InputSpec([n], _mat(rng, 1, n, 0.5, runs=True),
                                                format=["rle"])})
    return jobs


# -- spmspv_large ----------------------------------------------------------------------

SPMSPV_N = 400
SPMSPV_DENSITY_A, SPMSPV_DENSITY_X = 0.1, 0.02
SPMSPV_PROBE_N = 16


def _spmspv_steps(rng, workdir, tag, n, with_reference):
    a = [v for _ in range(n) for v in _vec(rng, n, SPMSPV_DENSITY_A)]
    # x's stored entries are evenly spaced, last one at n, so every seed's
    # merge spans whole rows and the operation count hardly moves with the seed
    x = [0.0] * n
    stride = round(1 / SPMSPV_DENSITY_X)
    for j in range(n - 1, -1, -stride):
        x[j] = rng.random()
    path = os.path.join(workdir, f"{tag}.mtx")
    write_mtx(path, [n, n], a)
    expected = None
    if with_reference:
        nzx = [(j, v) for j, v in enumerate(x) if v != 0.0]
        y = [0.0] * n
        for i in range(n):
            acc = 0.0
            for j, v in nzx:
                if a[i * n + j] != 0.0:
                    acc += a[i * n + j] * v
            y[i] = acc
        expected = {"y": y}
    return [Step(SPMSPV,
                 {"x": InputSpec([n], x, format=["splist"], protocols={1: proto})},
                 {"y": OutputSpec(format=["dense"])},
                 mtx={"A": (path, ["dense", "splist"], {2: proto})},
                 expected=expected)
            for proto in ("walk", "gallop")]


def spmspv_jobs(seed: int, workdir: str) -> List[Job]:
    """The flagship y[i] += A[i,j]*x[j]: A (dense.splist) read from a seeded
    MatrixMarket file, x (splist) sparser than A's rows, walked and galloped,
    as `coil bench --variant walk --variant gallop` does. The large product is
    checked against a plain-Python reference; a 16x16 probe of the same
    assignment is checked against the dense oracle."""
    rng = random.Random(seed)
    steps = _spmspv_steps(rng, workdir, "A", SPMSPV_N, True)
    steps += _spmspv_steps(rng, workdir, "probe", SPMSPV_PROBE_N, False)
    return [Job("spmspv/walk+gallop", steps)]


# -- image_blend -----------------------------------------------------------------------

IMAGE_H, IMAGE_W, IMAGE_MAX_RUN = 100, 2000, 64
IMAGE_DENSE_H, IMAGE_DENSE_W = 16, 128
ALPHA, BETA = 0.25, 0.75


def image_jobs(seed: int, workdir: str) -> List[Job]:
    """alpha_blend of two dense.rle images (runs 1-64 wide) into a dense.rle
    output and rle_sum over the same image, both checked against a
    plain-Python reference; plus a crop blended dense.dense, the unstructured
    counterpart, read from MatrixMarket files and checked against the oracle."""
    rng = random.Random(seed)
    h, w = IMAGE_H, IMAGE_W
    imgs = [[v for _ in range(h) for v in _runs_row(rng, w, IMAGE_MAX_RUN, 255)]
            for _ in range(2)]
    b, c = imgs
    blended = [float(round(ALPHA * p + BETA * q)) for p, q in zip(b, c)]
    rle = ["dense", "rle"]
    steps = [
        Step(BLEND, {"B": InputSpec([h, w], b, format=rle),
                     "C": InputSpec([h, w], c, format=rle)},
             {"A": OutputSpec(dims=[h, w], format=rle)},
             {"alpha": ALPHA, "beta": BETA}, expected={"A": blended}),
        Step(RLE_SUM_2D, {"A": InputSpec([h, w], b, format=rle)},
             expected={"C": [float(sum(b))]}),
    ]
    mtx = {}
    for name, img in zip("BC", imgs):
        crop = [img[i * w + j] for i in range(IMAGE_DENSE_H) for j in range(IMAGE_DENSE_W)]
        path = os.path.join(workdir, f"{name}.mtx")
        write_mtx(path, [IMAGE_DENSE_H, IMAGE_DENSE_W], crop)
        mtx[name] = (path, ["dense", "dense"], {})
    steps.append(Step(BLEND, {}, {"A": OutputSpec(dims=[IMAGE_DENSE_H, IMAGE_DENSE_W])},
                      {"alpha": ALPHA, "beta": BETA}, mtx=mtx))
    return [Job("image/rle+dense", steps)]


def _oracle_steps(jobs: List[Job]) -> List[Step]:
    return [s for j in jobs for s in j.steps if s.expected is None]


WORKLOADS = {
    "corpus_sweep": Workload("corpus_sweep", corpus_jobs),
    "spmspv_large": Workload("spmspv_large", spmspv_jobs, _oracle_steps),
    "image_blend": Workload("image_blend", image_jobs, _oracle_steps),
}
