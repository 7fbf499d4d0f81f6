import pathlib
import random

import pytest

from coil.api import InputSpec, OutputSpec, compile_kernel, execute, oracle_outputs, run_kernel
from coil.cin import Assign, Access, Furl
from coil.expr import Call, Lit, Var, extent
from coil.looplets import Phase, Pipeline, Run, Switch
from coil.lower import LowerCtx, _dispatch
from coil.parser import parse
from coil.target import count_loops, print_ir
from coil.unfurl import CompileError

GOLDEN = pathlib.Path(__file__).parent / "goldens"

FIG_A = [0.0, 1.9, 0.0, 3.0, 0.0, 2.7, 0.0, 5.5, 0.0, 0.0, 0.0]
FIG_B = [0.0, 0.0, 0.0, 3.7, 4.7, 9.2, 1.5, 8.2, 0.0, 0.0, 0.0]

DOT = "@V i C[] += A[i] * B[i]"


def fig_inputs():
    return {"A": InputSpec([11], FIG_A, format=["splist"]),
            "B": InputSpec([11], FIG_B, format=["sband"])}


# -- golden IR -------------------------------------------------------------------


def test_dot_golden_ir_byte_stable():
    text1 = compile_kernel(parse(DOT), fig_inputs()).ir_text()
    text2 = compile_kernel(parse(DOT), fig_inputs()).ir_text()
    assert text1 == text2
    assert text1 + "\n" == (GOLDEN / "dot_ir.txt").read_text()


def test_dot_golden_ir_structure():
    text = compile_kernel(parse(DOT), fig_inputs()).ir_text()
    assert text.count("search(") == 1
    assert text.count("while ") == 1
    assert text.count("B_val[") == 1  # one band lookup
    assert "for " not in text


def test_dot_fig_values_and_counters():
    r = execute(compile_kernel(parse(DOT), fig_inputs()))
    assert abs(r.dense["C"][0] - 81.04) < 1e-12
    assert r.counters.multiplies == 3
    assert r.counters.reads_by_buffer["A_val"] == 3


# -- per-pass structure -------------------------------------------------------------


def test_dense_inputs_give_perfect_loop_nest():
    ins = {"A": InputSpec([4, 5], [1.0] * 20, format=["dense", "dense"]),
           "x": InputSpec([5], [1.0] * 5)}
    c = compile_kernel(parse("@V i j y[i] += A[i,j] * x[j]"), ins)
    text = c.ir_text()
    assert text.count("for ") == 2
    assert text.count("while") == 0


def test_run_pass_annihilates_empty_operand():
    ins = {"A": InputSpec([9], [1.0] * 9, format=["splist"]),
           "B": InputSpec([9], [0.0] * 9, format=["splist"])}
    c = compile_kernel(parse(DOT), ins)
    assert count_loops(c.program) == 0
    r = execute(c)
    assert r.counters.multiplies == 0 and r.dense["C"] == [0.0]


def test_mul_identity_literal_is_pass():
    c = compile_kernel(parse("@V i in 1:6 (C[] *= 1)"), {},
                       {"C": OutputSpec(dims=[], fill=1.0)})
    assert count_loops(c.program) == 0
    assert execute(c).dense["C"] == [1.0]


def test_mul_update_through_rle():
    ins = {"B": InputSpec([6], [1.0] * 3 + [2.0] * 3, format=["rle"])}
    c = compile_kernel(parse("@V i C[] *= B[i]"), ins,
                       {"C": OutputSpec(dims=[], fill=1.0)})
    r = execute(c)
    assert r.dense["C"] == [8.0]


def test_spike_pass_splits_body_and_tail():
    # single-element lists: tail code only, no loops at runtime
    ins = {"A": InputSpec([8], [0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0], format=["splist"]),
           "B": InputSpec([8], [0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0], format=["splist"])}
    r = execute(compile_kernel(parse(DOT), ins))
    assert r.dense["C"] == [20.0]
    assert r.counters.multiplies == 1


def test_switch_pass_cartesian_product():
    # the two-by-two switch worked example: four branches, first-match order
    ctx = LowerCtx({}, {})
    a = Furl(Switch(((Var("xgt"), Run(Lit(1))), (Lit(True), Run(Lit(2))))), "i")
    b = Furl(Switch(((Var("ygt"), Run(Lit(3))), (Lit(True), Run(Lit(4))))), "i")
    body = Assign(Access("C", ()), "add", Call("mul", (a, b)))
    ctx.writers = {}
    from coil.unfurl import WriterPlan

    ctx.writers["C"] = WriterPlan("C", [], 0, "int", ["elem"])
    out = _dispatch(ctx, "i", extent(1, 10), body)
    text = print_ir(out)
    # bodies carry the four products 1*3, 1*4, 2*3, 2*4 summed over ten iterations
    assert text == (
        "if xgt && ygt\n"
        "  C_val[1] += 30\n"
        "elseif xgt\n"
        "  C_val[1] += 40\n"
        "elseif ygt\n"
        "  C_val[1] += 60\n"
        "else\n"
        "  C_val[1] += 80\n"
        "end"
    )


def test_switch_blowup_guard():
    terms = " * ".join(f"A{k}[i::followzero]" for k in range(7))
    ins = {f"A{k}": InputSpec([4], [1.0, 0.0, 2.0, 0.0]) for k in range(7)}
    with pytest.raises(CompileError) as e:
        compile_kernel(parse(f"@V i C[] += {terms}"), ins)
    assert "branches" in str(e.value)


def test_pipeline_pass_symbolic_combination_bounds():
    # two two-phase pipelines with runtime stops: every combination gets an
    # intersected, guarded region in emission (= linearized) order
    ctx = LowerCtx({}, {})
    from coil.unfurl import WriterPlan

    ctx.writers = {"C": WriterPlan("C", [], 0, "int", ["elem"])}
    pa = Furl(Pipeline((Phase(Run(Lit(1)), stop=Var("sA")), Phase(Run(Lit(2))))), "i")
    pb = Furl(Pipeline((Phase(Run(Lit(3)), stop=Var("sB")), Phase(Run(Lit(4))))), "i")
    body = Assign(Access("C", ()), "add", Call("mul", (pa, pb)))
    out = _dispatch(ctx, "i", extent(1, 10), body)
    text = print_ir(out)
    assert text.count("let lo") == 4  # four combination regions
    assert "min(sA, sB, 10)" in text
    assert "max(sA + 1, sB + 1, 1)" in text or "max(sB + 1, sA + 1, 1)" in text
    # linearization: the (1,3) combination is emitted before (2,4)
    assert text.index("3 * (") < text.index("8 * (")


def test_stepper_pass_two_finger_shape():
    ins = {"A": InputSpec([10], [0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0],
                          format=["splist"]),
           "B": InputSpec([10], [1.0, 0.0, 0.0, 5.0, 0.0, 0.0, 6.0, 0.0, 0.0, 0.0],
                          format=["splist"])}
    c = compile_kernel(parse(DOT), ins)
    text = c.ir_text()
    assert "stride = min(A_idx[p_A], B_idx[p_B]" in text
    assert "p_A = p_A + 1" in text and "p_B = p_B + 1" in text
    r = execute(c)
    assert r.dense["C"] == [3.0 * 5.0 + 4.0 * 6.0]


def test_jumper_pass_three_branch_shape():
    ins = {"A": InputSpec([10], [0.0, 2.0, 0.0, 3.0, 0.0] * 2, format=["splist"],
                          protocols={1: "gallop"}),
           "B": InputSpec([10], [1.0, 0.0, 4.0, 3.0, 0.0] * 2, format=["splist"],
                          protocols={1: "gallop"})}
    c = compile_kernel(parse(DOT), ins)
    text = c.ir_text()
    assert "max(A_idx[p_A], B_idx[p_B])" in text
    assert "stride == A_idx[p_A] && stride == B_idx[p_B]" in text
    r = execute(c)
    want = oracle_outputs(parse(DOT), ins)
    assert r.dense["C"] == want["C"]


def test_gallop_leader_skips():
    n = 400
    a = [0.0] * n
    a[250] = 2.0
    b = [float(k % 7 + 1) for k in range(n)]
    ins = {"A": InputSpec([n], a, format=["splist"], protocols={1: "gallop"}),
           "B": InputSpec([n], b, format=["splist"], protocols={1: "gallop"})}
    r = execute(compile_kernel(parse(DOT), ins))
    assert r.dense["C"] == [2.0 * b[250]]
    assert r.counters.loop_iterations <= 4


def test_walk_merge_iteration_bound():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 30)
        a = [rng.random() if rng.random() < 0.4 else 0.0 for _ in range(n)]
        b = [rng.random() if rng.random() < 0.4 else 0.0 for _ in range(n)]
        ins = {"A": InputSpec([n], a, format=["splist"]),
               "B": InputSpec([n], b, format=["splist"])}
        r = execute(compile_kernel(parse(DOT), ins))
        nnz_a = sum(1 for v in a if v)
        nnz_b = sum(1 for v in b if v)
        assert r.counters.loop_iterations <= nnz_a + nnz_b + 1


def test_sieve_mask_accumulates_only_target():
    ins = {"A": InputSpec([5], [1.0, 2.0, 3.0, 4.0, 5.0])}
    r = run_kernel("@V j @sieve j == 3 (C[] += A[j])", ins)
    assert r.dense["C"] == [3.0]


def test_sieve_true_false():
    ins = {"A": InputSpec([3], [1.0, 2.0, 3.0])}
    assert run_kernel("@V j @sieve true (C[] += A[j])", ins).dense["C"] == [6.0]
    assert run_kernel("@V j @sieve false (C[] += A[j])", ins).dense["C"] == [0.0]


def test_general_boolean_sieve_emits_branch():
    ins = {"A": InputSpec([6], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])}
    r = run_kernel("@V j @sieve $on (C[] += A[j])", ins, params={"on": True})
    assert r.dense["C"] == [21.0]
    r2 = run_kernel("@V j @sieve $on (C[] += A[j])", ins, params={"on": False})
    assert r2.dense["C"] == [0.0]


def test_trailing_bound_access_follows():
    # transpose-style read: the second access walks rows of the same matrix
    n = 4
    data = [float(i * n + j + 1) for i in range(n) for j in range(n)]
    ins = {"A": InputSpec([n, n], data, format=["dense", "splist"])}
    k = "@V i j C[] += A[i,j] * A[j,i]"
    r = run_kernel(k, ins)
    want = oracle_outputs(parse(k), ins)
    assert abs(r.dense["C"][0] - want["C"][0]) < 1e-9


def test_where_workspace_reinitialized_per_iteration():
    rng = random.Random(0)
    m, nn = 3, 5
    Ad = [float(rng.randint(0, 3)) for _ in range(m * nn)]
    k = "@V k l ((O[k,l] = o[]) where (@V ij o[] += A[k,ij] * A[l,ij]))"
    ins = {"A": InputSpec([m, nn], Ad, format=["dense", "splist"])}
    r = run_kernel(k, ins, {"O": OutputSpec(dims=[m, m])})
    want = oracle_outputs(parse(k), ins, {"O": OutputSpec(dims=[m, m])})
    assert r.dense["O"] == want["O"]


def test_rle_alpha_blend_run_writes():
    h, w = 2, 16
    B = ([10.0] * 8 + [30.0] * 8) * h
    C = ([2.0] * 8 + [4.0] * 8) * h
    k = "@V i j A[i,j] = round($alpha * B[i,j] + $beta * C[i,j])"
    ins = {"B": InputSpec([h, w], B, format=["dense", "rle"]),
           "C": InputSpec([h, w], C, format=["dense", "rle"])}
    out = {"A": OutputSpec(dims=[h, w], format=["dense", "rle"])}
    r = run_kernel(k, ins, out, params={"alpha": 0.5, "beta": 0.5})
    want = oracle_outputs(parse(k), ins, out, params={"alpha": 0.5, "beta": 0.5})
    assert r.dense["A"] == want["A"]
    # two aligned runs per row, two multiplies per run region
    assert r.counters.multiplies == 2 * 2 * h


def test_scatter_write_to_append_only_output_rejected():
    ins = {"B": InputSpec([4], [1.0, 2.0, 3.0, 4.0])}
    with pytest.raises(CompileError):
        compile_kernel(parse("@V i y[f(i)] = B[i]"), ins,
                       {"y": OutputSpec(dims=[4], format=["splist"])})


def test_unsupported_pair_is_compile_error():
    ins = {"A": InputSpec([4], [1.0, 1.0, 2.0, 2.0], format=["rle"],
                          protocols={1: "gallop"})}
    with pytest.raises(CompileError):
        compile_kernel(parse("@V i C[] += A[i]"), ins)


def test_lookup_pass_worked_example():
    # Lookup(j*j) x Lookup(data[j]) accumulated over a for loop
    from coil.expr import Read
    from coil.looplets import Lookup

    ctx = LowerCtx({}, {})
    from coil.unfurl import WriterPlan

    ctx.writers = {"C": WriterPlan("C", [], 0, "int", ["elem"])}
    a = Furl(Lookup("j", Call("mul", (Var("j"), Var("j")))), "i")
    b = Furl(Lookup("j2", Read("data", (Var("j2"),))), "i")
    body = Assign(Access("C", ()), "add", Call("mul", (a, b)))
    out = _dispatch(ctx, "i", extent(1, 4), body)
    text = print_ir(out)
    assert text == (
        "for i = 1:4\n"
        "  C_val[1] += i * i * data[i]\n"
        "end"
    )


def test_lookup_pass_single_sum():
    ins = {"A": InputSpec([5], [1.0, 2.0, 3.0, 4.0, 5.0])}
    r = run_kernel("@V i C[] += A[i]", ins)
    assert r.dense["C"] == [15.0]


def test_static_empty_extent_emits_no_code():
    c = compile_kernel(parse("@V i in 5:4 (C[] += A[i])"),
                       {"A": InputSpec([9], [1.0] * 9)})
    assert count_loops(c.program) == 0
    assert execute(c).dense["C"] == [0.0]


def test_triangle_count_complete_graph():
    n = 5
    adj = [i != j for i in range(n) for j in range(n)]
    ins = {"A": InputSpec([n, n], adj, format=["dense", "splist"], fill=False,
                          dtype="bool")}
    k = "@V i j k C[] += A[i,j] && A[j,k] && A[k,i]"
    r = run_kernel(k, ins, {"C": OutputSpec(dims=[], dtype="int", fill=0)})
    assert r.dense["C"] == [60]  # ordered triples; 60 / 6 = 10 triangles


def test_multi_two_outputs():
    ins = {"B": InputSpec([3], [1.0, 2.0, 3.0])}
    r = run_kernel("@multi { @V i A[i] = B[i]; @V j C2[j] = B[j] + 1.0 }", ins,
                   {"A": OutputSpec(dims=[3]), "C2": OutputSpec(dims=[3])})
    assert r.dense["A"] == [1.0, 2.0, 3.0]
    assert r.dense["C2"] == [2.0, 3.0, 4.0]


def test_exotic_combinations_match_oracle():
    rng = random.Random(99)

    def vec(n, d=0.5):
        return [rng.random() if rng.random() < d else 0.0 for _ in range(n)]

    cases = [
        # window over a sparse list at the forall index
        ("@V k B[k] = A[window(3,7)[k]]",
         {"A": InputSpec([9], vec(9), format=["splist"])},
         {"B": OutputSpec(dims=[5])}, {}),
        # offset view with an explicit extent
        ("@V k in 1:4 (B[k] = A[offset(-2)[k]])",
         {"A": InputSpec([6], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0], format=["rle"])},
         {"B": OutputSpec(dims=[4])}, {}),
        # max-update over coiterated sparse operands
        ("@V i j y[i] <<max>>= A[i,j] * x[j]",
         {"A": InputSpec([4, 8], vec(32, 0.4), format=["dense", "splist"]),
          "x": InputSpec([8], vec(8, 0.5), format=["splist"])},
         {"y": OutputSpec(dims=[4])}, {}),
        # three-mode contraction
        ("@V i j k C[i] += T[i,j,k] * u[j] * v[k]",
         {"T": InputSpec([3, 4, 5], vec(60, 0.3), format=["dense", "splist", "splist"]),
          "u": InputSpec([4], vec(4, 0.8)),
          "v": InputSpec([5], vec(5, 0.8), format=["splist"])},
         {"C": OutputSpec(dims=[3])}, {}),
    ]
    from coil.oracle import max_rel_error

    for kernel, ins, outs, params in cases:
        got = run_kernel(kernel, ins, outs, params=params).dense
        want = oracle_outputs(parse(kernel), ins, outs, params=params)
        for name in want:
            assert max_rel_error(got[name], want[name]) <= 1e-12, kernel


def test_or_update_over_bool_tensors():
    rng = random.Random(41)
    adj = [rng.random() < 0.3 for _ in range(4 * 8)]
    xb = [rng.random() < 0.4 for _ in range(8)]
    k = "@V i j y[i] <<or>>= A[i,j] && x[j]"
    ins = {"A": InputSpec([4, 8], adj, format=["dense", "splist"], fill=False, dtype="bool"),
           "x": InputSpec([8], xb, format=["splist"], fill=False, dtype="bool")}
    outs = {"y": OutputSpec(dims=[4], dtype="bool", fill=False)}
    got = run_kernel(k, ins, outs).dense
    want = oracle_outputs(parse(k), ins, outs)
    assert got["y"] == want["y"]


def test_kernel_annotation_overrides_cli_default():
    rng = random.Random(23)
    a = [rng.random() if rng.random() < 0.5 else 0.0 for _ in range(10)]
    b = [rng.random() if rng.random() < 0.5 else 0.0 for _ in range(10)]
    ins = {"A": InputSpec([10], a, format=["splist"], protocols={1: "gallop"}),
           "B": InputSpec([10], b, format=["splist"])}
    c = compile_kernel(parse("@V i C[] += A[i::walk] * B[i]"), ins)
    assert "max(" not in c.ir_text()  # walked, not galloped
    want = oracle_outputs(parse(DOT), ins)
    assert execute(c).dense["C"] == want["C"]


def test_protocol_choice_never_changes_results():
    rng = random.Random(31)
    n = 20
    a = [rng.random() if rng.random() < 0.4 else 0.0 for _ in range(n)]
    b = [rng.random() if rng.random() < 0.4 else 0.0 for _ in range(n)]
    results = []
    for proto in ("walk", "gallop", "follow"):
        ins = {"A": InputSpec([n], a, format=["splist"], protocols={1: proto}),
               "B": InputSpec([n], b, format=["splist"], protocols={1: proto})}
        results.append(execute(compile_kernel(parse(DOT), ins)).dense["C"])
    assert results[0] == results[1] == results[2]


def test_skewed_spmspv_gallop_beats_walk():
    rng = random.Random(13)
    n, m = 10, 48
    ad = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(n * m)]
    xd = [0.0] * m
    xd[m // 2] = 3.0  # a single nonzero in x; rows of A are dense-ish
    k = "@V i j y[i] += A[i,j] * x[j]"

    def run(proto):
        ins = {"A": InputSpec([n, m], ad, format=["dense", "splist"], protocols={2: proto}),
               "x": InputSpec([m], xd, format=["splist"], protocols={1: proto})}
        return execute(compile_kernel(parse(k), ins,
                                      {"y": OutputSpec(format=["splist"])}))

    walk, gallop = run("walk"), run("gallop")
    assert walk.dense["y"] == gallop.dense["y"]
    assert gallop.counters.loop_iterations < walk.counters.loop_iterations


def test_stage_dump_records_pass_order():
    c = compile_kernel(parse(DOT), fig_inputs(), stages=True)
    names = [line.split()[1] for line in "\n".join(c.stages).splitlines()
             if line.startswith("== ")]
    assert names and names[0] == "pass_pipeline"
    assert "pass_stepper" in names and "pass_spike" in names
    # spike resolves before the lookup pass runs on the tail region
    assert names.index("pass_spike") < names.index("pass_lookup")


def test_dump_stages_deterministic():
    c1 = compile_kernel(parse(DOT), fig_inputs(), stages=True)
    c2 = compile_kernel(parse(DOT), fig_inputs(), stages=True)
    assert c1.stages == c2.stages


def test_oracle_reads_inputs_without_assembly(monkeypatch):
    """The oracle takes each input's payload as given: no format assembly,
    the dtype inferred as assembly infers it, and the same typed errors."""
    import coil.api
    from coil.storage import FormatError

    ins = {"A": InputSpec([2, 3], [1, 0, 2, 0, 0, 3], format=["dense", "splist"], fill=0),
           "x": InputSpec([3], [0.5, 0.0, 2.0], format=["splist"])}
    kernel = parse("@V i j y[i] += A[i,j] * x[j]")
    want = execute(compile_kernel(kernel, ins)).dense

    def no_assembly(*args, **kwargs):
        raise AssertionError("the oracle assembled an input")

    monkeypatch.setattr(coil.api, "from_dense", no_assembly)
    assert oracle_outputs(kernel, ins) == want
    for bad in (InputSpec([3], [1.0, 2.0]), InputSpec([0], [])):
        with pytest.raises(FormatError):
            oracle_outputs(kernel, {**ins, "x": bad})


def test_oracle_rejects_a_non_boolean_select_condition_as_the_backends_do():
    """The oracle does not read a number as a truth value: it raises the
    backends' wording, which both backends raise for the same kernel."""
    from coil.interp import InterpError
    from coil.oracle import OracleError

    text = "@V i C[i] = select(A[i], 1.0, 2.0)"
    want = "select condition must be boolean, got 0.0"
    for n in (4, 1024):  # interpreted, and generated code
        ins = {"A": InputSpec([n], [0.0, 1.0, 0.7, 0.2] * (n // 4))}
        with pytest.raises(InterpError, match=f"^{want}$"):
            run_kernel(text, ins)
        with pytest.raises(OracleError, match=f"^{want}$"):
            oracle_outputs(text, ins)
    ins = {"A": InputSpec([2], [True, False], dtype="bool", fill=False)}
    assert oracle_outputs(text, ins)["C"] == run_kernel(text, ins).dense["C"] == [1.0, 2.0]
