"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 1 sweeps the kernel corpus over every admissible format/protocol
assignment with randomized instances against the dense oracle; the rest pin
operation counts, code structure, and the randomized property suites.
"""

import itertools
import random

from coil.api import PROGRAMS, InputSpec, OutputSpec, compile_kernel, execute, oracle_outputs
from coil.oracle import max_rel_error
from coil.parser import parse
from coil.target import count_loops

from test_looplets import run_truncation_soundness
from test_rewrite import run_preservation
from test_unfurl import run_modifier_laws, run_unfurl_soundness

FIG_A = [0.0, 1.9, 0.0, 3.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0, 0.0]
FIG_B = [0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.2, 0.0, 0.0, 0.0]

DOT = "@V i C[] += A[i] * B[i]"


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


# -- criterion 1: oracle corpus ---------------------------------------------------


def _vec(rng, n, density, dist="floats"):
    out = []
    for _ in range(n):
        if rng.random() < density:
            out.append(float(rng.randint(1, 9)) if dist == "ints" else rng.random())
        else:
            out.append(0.0)
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


def _mat(rng, n, m, density, dist="floats", runs=False):
    out = []
    for _ in range(n):
        if runs:
            row = []
            while len(row) < m:
                v = float(rng.randint(0, 4))
                row.extend([v] * rng.randint(1, 4))
            out.extend(row[:m])
        else:
            out.extend(_vec(rng, m, density, dist))
    return out


VEC_CONFIGS = [
    ("splist", "walk"), ("splist", "gallop"), ("splist", "follow"),
    ("sband", "walk"), ("sband", "follow"),
    ("svbl", "walk"),
    ("rle", "walk"), ("rle", "follow"),
    ("dense", "walk"), ("dense", "follow"), ("dense", "followzero"),
]


def _check_case(kernel, inputs, outputs, params, exact):
    compiled = compile_kernel(parse(kernel), inputs, outputs, params)
    got = execute(compiled, params).dense
    want = oracle_outputs(parse(kernel), inputs, outputs, params)
    assert set(want) <= set(got)
    for name in want:
        if exact.get(name, False):
            assert got[name] == want[name], (name, got[name], want[name])
        else:
            err = max_rel_error(got[name], want[name])
            assert err <= 1e-12, (name, err)


def _dot_cases(rng, trials_per_assignment):
    for (fa, pa), (fb, pb) in itertools.product(VEC_CONFIGS, repeat=2):
        for _ in range(trials_per_assignment):
            n = rng.randint(2, 24)
            a = _clustered_vec(rng, n, 0.4) if fa in ("sband", "svbl") else _vec(rng, n, 0.4)
            b = _clustered_vec(rng, n, 0.4) if fb in ("sband", "svbl") else _vec(rng, n, 0.4)
            ins = {"A": InputSpec([n], a, format=[fa], protocols={1: pa}),
                   "B": InputSpec([n], b, format=[fb], protocols={1: pb})}
            yield DOT, ins, {}, {}, {}


SPMSPV = "@V i j y[i] += A[i,j] * x[j]"
A_CONFIGS = [
    (("dense", "splist"), "walk"), (("dense", "splist"), "gallop"),
    (("dense", "splist"), "follow"), (("dense", "svbl"), "walk"),
    (("dense", "sband"), "walk"), (("dense", "dense"), "walk"),
]
X_CONFIGS = [("splist", "walk"), ("splist", "gallop"), ("splist", "follow"),
             ("dense", "walk")]


def _spmspv_cases(rng, trials_per_assignment):
    for (fa, pa), (fx, px) in itertools.product(A_CONFIGS, X_CONFIGS):
        for _ in range(trials_per_assignment):
            n, m = rng.randint(2, 8), rng.randint(2, 12)
            ad = _mat(rng, n, m, 0.4)
            xd = _vec(rng, m, 0.4)
            ins = {"A": InputSpec([n, m], ad, format=list(fa), protocols={2: pa}),
                   "x": InputSpec([m], xd, format=[fx], protocols={1: px})}
            outs = {"y": OutputSpec(format=["splist" if rng.random() < 0.5 else "dense"])}
            yield SPMSPV, ins, outs, {}, {}


TRIANGLE = "@V i j k C[] += A[i,j] && A[j,k] && A[k,i]"


def _triangle_cases(rng, trials_per_assignment):
    for fmt, proto in [(("dense", "splist"), "walk"), (("dense", "splist"), "gallop"),
                       (("dense", "dense"), "walk")]:
        for _ in range(trials_per_assignment):
            n = rng.randint(2, 8)
            adj = [False] * (n * n)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        adj[i * n + j] = adj[j * n + i] = True
            ins = {"A": InputSpec([n, n], adj, format=list(fmt), fill=False,
                                  dtype="bool", protocols={2: proto})}
            outs = {"C": OutputSpec(dims=[], dtype="int", fill=0)}
            yield TRIANGLE, ins, outs, {}, {"C": True}


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


def _other_cases(rng, trials):
    # 1-D convolution
    for fmt in ("splist", "dense", "svbl", "rle"):
        for _ in range(trials):
            n = rng.randint(3, 20)
            ins = {"A": InputSpec([n], _vec(rng, n, 0.3), format=[fmt]),
                   "F": InputSpec([3], [rng.random() for _ in range(3)])}
            yield CONV1D, ins, {"B": OutputSpec(dims=[n])}, {"c": 2}, {}
    # masked 2-D convolution
    for fmt in (("dense", "splist"), ("dense", "dense")):
        for _ in range(trials):
            n, m = rng.randint(3, 7), rng.randint(3, 7)
            ins = {"A": InputSpec([n, m], _mat(rng, n, m, 0.3), format=list(fmt)),
                   "F": InputSpec([3, 3], [rng.random() for _ in range(9)])}
            yield CONV2D, ins, {"C": OutputSpec(dims=[n, m])}, {"c": 2}, {}
    # concatenation
    for fa, fb in itertools.product(("dense", "splist"), repeat=2):
        for _ in range(trials):
            na, nb = rng.randint(1, 10), rng.randint(1, 10)
            ins = {"A": InputSpec([na], _vec(rng, na, 0.6), format=[fa]),
                   "B": InputSpec([nb], _vec(rng, nb, 0.6), format=[fb])}
            yield CONCAT, ins, {"C": OutputSpec(dims=[na + nb])}, {"na": na}, {}
    # alpha blend
    for fmt, ofmt in ((("dense", "rle"), ("dense", "rle")),
                      (("dense", "dense"), ("dense", "dense"))):
        for _ in range(trials):
            h, w = rng.randint(1, 4), rng.randint(2, 16)
            ins = {"B": InputSpec([h, w], _mat(rng, h, w, 0.5, runs=True), format=list(fmt)),
                   "C": InputSpec([h, w], _mat(rng, h, w, 0.5, runs=True), format=list(fmt))}
            outs = {"A": OutputSpec(dims=[h, w], format=list(ofmt))}
            yield BLEND, ins, outs, {"alpha": 0.25, "beta": 0.75}, {}
    # all-pairs similarity
    for fmt in (("dense", "svbl"), ("dense", "splist"), ("dense", "rle")):
        for _ in range(trials):
            m, nn = rng.randint(2, 5), rng.randint(2, 10)
            ad = _mat(rng, m, nn, 0.5, dist="ints")
            rd = [sum(ad[r * nn + c] ** 2 for c in range(nn)) for r in range(m)]
            ins = {"A": InputSpec([m, nn], ad, format=list(fmt)),
                   "R": InputSpec([m], rd)}
            yield ALLPAIRS, ins, {"O": OutputSpec(dims=[m, m])}, {}, {}
    # run-length sum
    for _ in range(trials):
        n = rng.randint(1, 40)
        ins = {"A": InputSpec([n], _mat(rng, 1, n, 0.5, runs=True), format=["rle"])}
        yield RLE_SUM, ins, {}, {}, {}


def corpus_cases(rng, trials_per_assignment):
    """Every corpus kernel x admissible format/protocol assignment, as
    (kernel, inputs, outputs, params, exact) with fresh random instances."""
    for cases in (_dot_cases, _spmspv_cases, _triangle_cases, _other_cases):
        yield from cases(rng, trials_per_assignment)


def test_criterion_1_oracle_corpus():
    total = 0
    for case in corpus_cases(random.Random(20260809), 100):
        _check_case(*case)
        total += 1
    report("1 oracle corpus",
           f"{total} randomized instances across all admissible assignments agree "
           "with the dense oracle")


# -- criterion 2: asymptotics on the worked example -------------------------------


def test_criterion_2_flagship_asymptotics():
    ins = {"A": InputSpec([11], FIG_A, format=["splist"]),
           "B": InputSpec([11], FIG_B, format=["sband"])}
    r = execute(compile_kernel(parse(DOT), ins))
    assert abs(r.dense["C"][0] - 81.04) < 1e-12
    assert r.counters.reads_by_buffer["A_val"] == 3
    assert r.counters.multiplies == 3

    two_finger = {"A": InputSpec([11], FIG_A, format=["splist"]),
                  "B": InputSpec([11], FIG_B, format=["splist"])}
    r2 = execute(compile_kernel(parse(DOT), two_finger))
    assert abs(r2.dense["C"][0] - 81.04) < 1e-12
    cost = r.counters.multiplies + r.counters.compares
    cost2 = r2.counters.multiplies + r2.counters.compares
    assert cost2 >= cost + 4, (cost, cost2)
    report("2 flagship asymptotics",
           f"band skip: 3 value reads / 3 multiplies; two-finger costs {cost2 - cost} "
           "more multiplies-or-compares")


# -- criterion 3: zero annihilation ------------------------------------------------


def test_criterion_3_zero_annihilation():
    ins = {"A": InputSpec([32], [1.0] * 32, format=["splist"]),
           "B": InputSpec([32], [0.0] * 32, format=["splist"])}
    c = compile_kernel(parse(DOT), ins)
    assert count_loops(c.program) == 0
    r = execute(c)
    assert r.counters.multiplies == 0
    assert r.dense["C"] == [0.0]
    report("3 zero annihilation", "all-fill operand compiles to 0 loop nodes, 0 multiplies")


# -- criterion 4: merge bounds ------------------------------------------------------


def test_criterion_4_merge_bounds():
    rng = random.Random(44)
    for trial in range(1000):
        n = rng.randint(2, 40)
        a = _vec(rng, n, rng.random())
        b = _vec(rng, n, rng.random())
        ins = {"A": InputSpec([n], a, format=["splist"]),
               "B": InputSpec([n], b, format=["splist"])}
        c = compile_kernel(parse(DOT), ins)
        assert "for " not in c.ir_text()  # every loop is an emitted while
        r = execute(c)
        bound = sum(1 for v in a if v) + sum(1 for v in b if v) + 1
        assert r.counters.loop_iterations <= bound

    for trial in range(25):
        n = 1400
        a = [0.0] * n
        a[rng.randint(100, 1200)] = 1.5
        b = [0.0] * n
        hits = rng.sample(range(n), 1000)
        for h in hits:
            b[h] = 1.0 + (h % 5)
        ins = {"A": InputSpec([n], a, format=["splist"], protocols={1: "gallop"}),
               "B": InputSpec([n], b, format=["splist"], protocols={1: "gallop"})}
        r = execute(compile_kernel(parse(DOT), ins))
        want = oracle_outputs(parse(DOT), ins)
        assert max_rel_error(r.dense["C"], want["C"]) <= 1e-12
        assert r.counters.loop_iterations <= 4
    report("4 merge bounds",
           "walk-by-walk within nnzA+nnzB+1 iterations (1000 instances); "
           "gallop leader finishes within 4 iterations at nnzA=1, nnzB=1000")


# -- criterion 5: run-length trip counts ---------------------------------------------


def test_criterion_5_rle_run_summing():
    rng = random.Random(55)
    for r_runs in (1, 5, 50):
        vals = []
        for k in range(r_runs):
            v = float(k % 7 + 1)  # adjacent runs always differ
            vals.extend([v] * rng.randint(1, 6))
        n = len(vals)
        ins = {"A": InputSpec([n], vals, format=["rle"])}
        c = compile_kernel(parse(RLE_SUM), ins)
        r = execute(c)
        assert abs(r.dense["C"][0] - sum(vals)) < 1e-9
        assert r.counters.buffer_writes == r_runs, (r_runs, r.counters.buffer_writes)
    report("5 run-length summing", "r runs execute exactly r add statements, r in {1,5,50}")


# -- criterion 6: randomized soundness suites -----------------------------------------


def test_criterion_6_property_suites():
    total = 0
    total += run_truncation_soundness(4200, seed=606)
    total += run_unfurl_soundness(150, seed=607)   # 11 pairs x 150 x 2 paths
    total += run_modifier_laws(90, seed=608)       # 5 formats x 90 x 6 checks
    assert total >= 10000
    report("6 property suites", f"{total} truncation/unfurl/modifier cases passed")


# -- criterion 7: golden IR -----------------------------------------------------------


def test_criterion_7_golden_ir():
    import pathlib

    ins = lambda: {"A": InputSpec([11], FIG_A, format=["splist"]),
                   "B": InputSpec([11], FIG_B, format=["sband"])}
    texts = []
    for clear in (True, True, False):  # cold twice, then warm
        if clear:
            PROGRAMS.clear()
        compiled = compile_kernel(parse(DOT), ins())
        assert compiled.lowering == ("fresh" if clear else "cached")
        texts.append(compiled.ir_text())
    t1 = texts[0]
    assert texts == [t1] * 3
    golden = pathlib.Path(__file__).parent / "goldens" / "dot_ir.txt"
    assert t1 + "\n" == golden.read_text()
    assert t1.count("search(") == 1
    assert t1.count("while ") == 1
    assert t1.count("B_val[") == 1
    report("7 golden IR", "one search, one while, one band lookup; byte-stable")


# -- criterion 8: rewrite preservation --------------------------------------------------


def test_criterion_8_rewrite_preservation():
    n = run_preservation(1000, seed=808)
    assert n == 1000
    report("8 rewrite preservation", "1000 random kernels agree before/after simplify")
