import json
import pathlib

import pytest

from coil import cli
from coil.api import InputSpec, OutputSpec, oracle_outputs, run_kernel
from coil.parser import MAX_DEPTH
from coil.tensorio import matrix_market_dense, read_dense_text, write_dense_text

KERNELS = pathlib.Path(__file__).parent.parent / "kernels"


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_compile_dot_prints_ir(capsys):
    rc = run_cli(["compile", "--kernel", KERNELS / "dot.cin",
                  "--tensor", "A=random:dims=24,density=0.3,seed=1,format=splist",
                  "--tensor", "B=random:dims=24,density=0.9,seed=2,format=sband"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "search(" in out and "while " in out


def test_compile_unbound_tensor_exit_2(capsys):
    rc = run_cli(["compile", "--kernel", KERNELS / "dot.cin",
                  "--tensor", "A=random:dims=8,density=0.5,seed=1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "B" in err


def test_compile_unsupported_pair_exit_2(capsys):
    rc = run_cli(["compile", "--kernel", KERNELS / "rle_sum.cin",
                  "--tensor", "A=random:dims=8,density=0.5,seed=1,format=rle",
                  "--protocol", "A.1=gallop"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "protocol" in err or "gallop" in err


def test_run_json_report(capsys, tmp_path, programs):
    for n, backend, codegen in ((4, "interp", [None, None]), (600, "python", ["fresh", "cached"])):
        path = tmp_path / "v.txt"
        write_dense_text(str(path), [n], [float(k % 4 + 1) for k in range(n)])
        path2 = tmp_path / "w.txt"
        write_dense_text(str(path2), [n], [1.0] * n)
        # the second run reuses the first's program, and its code when generated
        for lowering, code in zip(("fresh", "cached"), codegen):
            rc = run_cli(["run", "--kernel", KERNELS / "dot.cin",
                          "--tensor", f"A={path}", "--tensor", f"B={path2}", "--json"])
            out = capsys.readouterr().out
            assert rc == 0
            report = json.loads(out)
            assert report["outputs"]["C"] == [10.0 * n / 4]
            assert report["counters"]["loop_iterations"] == n
            assert report["backend"] == backend
            assert report["lowering"] == lowering
            assert report["codegen"] == code


def test_check_passes_on_dot(capsys):
    rc = run_cli(["check", "--kernel", KERNELS / "dot.cin",
                  "--tensor", "A=random:dims=40,density=0.2,format=splist",
                  "--tensor", "B=random:dims=40,density=0.3,format=splist",
                  "--trials", "10", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 10 trials agree" in out


def test_check_matrix_market_input(capsys, tmp_path):
    mtx = tmp_path / "m.mtx"
    mtx.write_text("""%%MatrixMarket matrix coordinate real general
3 4 3
1 1 2.0
2 3 1.5
3 4 4.0
""")
    vec = tmp_path / "x.txt"
    write_dense_text(str(vec), [4], [1.0, 0.0, 2.0, 0.5])
    rc = run_cli(["run", "--kernel", KERNELS / "spmspv.cin",
                  "--tensor", f"A={mtx},format=dense.splist",
                  "--tensor", f"x={vec},format=splist", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["outputs"]["y"] == [2.0, 3.0, 2.0]


def test_check_corrupted_rule_negative_control(capsys, tmp_path, monkeypatch, programs):
    # sabotage the annihilation rule: 0 * x rewrites to 1 instead of 0
    import coil.rewrite as rw
    from coil.expr import Call, Lit as L

    @rw._on(Call)
    def bad_annihilate(n):
        if n.op == "mul":
            for a in n.args:
                if isinstance(a, L) and a.value in (0, 0.0):
                    return L(1.0)
        return None

    rules = [(name, bad_annihilate if name == "mul_annihilate" else fn)
             for name, fn in rw.DEFAULT_RULES]
    # lowering reads the rule index, from an empty program cache (`programs`)
    monkeypatch.setattr(rw, "_BY_CLASS", rw._index(rules))
    replay = tmp_path / "replay.json"
    rc = run_cli(["check", "--kernel", KERNELS / "dot.cin",
                  "--tensor", "A=random:dims=12,density=0.4,format=splist",
                  "--tensor", "B=random:dims=12,density=0.4,format=dense",
                  "--trials", "5", "--seed", "3", "--replay", replay])
    captured = capsys.readouterr()
    assert rc == 1
    assert "MISMATCH" in captured.out
    data = json.loads(replay.read_text())
    assert data["kernel"].strip().endswith("A[i] * B[i]")
    assert "tensors" in data and "expected" in data
    # failures replay byte-exactly under the same seed
    first = replay.read_bytes()
    rc2 = run_cli(["check", "--kernel", KERNELS / "dot.cin",
                   "--tensor", "A=random:dims=12,density=0.4,format=splist",
                   "--tensor", "B=random:dims=12,density=0.4,format=dense",
                   "--trials", "5", "--seed", "3", "--replay", replay])
    capsys.readouterr()
    assert rc2 == 1 and replay.read_bytes() == first

    # protocols and output specs are recorded, and the file alone replays the run
    rc3 = run_cli(["check", "--kernel", KERNELS / "spmspv.cin",
                   "--tensor", "A=random:dims=6x12,density=0.4,format=dense.splist",
                   "--tensor", "x=random:dims=12,density=0.4,format=splist",
                   "--tensor", "y=out:format=splist", "--protocol", "x.1=gallop",
                   "--trials", "5", "--seed", "3", "--replay", replay])
    capsys.readouterr()
    assert rc3 == 1
    data = json.loads(replay.read_text())
    assert data["tensors"]["x"]["protocols"] == {"1": "gallop"}
    assert data["tensors"]["A"]["protocols"] == {}
    assert data["outputs"] == {"y": {"dims": None, "format": ["splist"], "fill": 0.0,
                                     "dtype": "float"}}
    inputs = {name: InputSpec(t["dims"], t["data"], t["format"], t["fill"], t["dtype"],
                              {int(m): p for m, p in t["protocols"].items()})
              for name, t in data["tensors"].items()}
    outputs = {name: OutputSpec(**o) for name, o in data["outputs"].items()}
    got = run_kernel(data["kernel"], inputs, outputs, data["params"])
    assert got.dense == data["got"] != data["expected"]
    assert oracle_outputs(data["kernel"], inputs, outputs, data["params"]) == data["expected"]


def test_bench_reports_per_variant_counters(capsys):
    rc = run_cli(["bench", "--kernel", KERNELS / "spmspv.cin",
                  "--tensor", "A=random:dims=10x24,density=0.6,seed=5,format=dense.splist",
                  "--tensor", "x=random:dims=24,density=0.05,seed=6,format=splist",
                  "--variant", "walk:A.2=walk;x.1=walk",
                  "--variant", "gallop:A.2=gallop;x.1=gallop",
                  "--trials", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert set(report) == {"walk", "gallop"}
    for label in report:
        assert "loop_iterations" in report[label]
        assert "wall_clock_s" in report[label]
        assert report[label]["backend"] == "interp"
        assert report[label]["codegen"] is None


def test_bench_reads_each_tensor_file_once(capsys, tmp_path, monkeypatch, programs):
    """A two-variant bench parses its .mtx file once, and reports what two
    single-variant benches report."""
    mtx = tmp_path / "m.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 4 4\n"
                   "1 1 2.0\n1 4 1.5\n2 2 3.0\n3 4 -1.0\n")
    reads = []

    def counted(path):
        reads.append(path)
        return matrix_market_dense(path)

    monkeypatch.setattr(cli, "matrix_market_dense", counted)
    base = ["bench", "--kernel", KERNELS / "spmspv.cin",
            "--tensor", f"A={mtx},format=dense.splist",
            "--tensor", "x=random:dims=4,density=0.7,seed=3,format=splist", "--trials", "1"]
    # a protocol the first variant sets must not leak into the second
    a_only, x_only = "a:A.2=gallop", "x:x.1=gallop"

    def bench(*variants):
        programs.clear()
        reads.clear()
        assert run_cli(base + [x for v in variants for x in ("--variant", v)]) == 0
        report = json.loads(capsys.readouterr().out)
        for entry in report.values():
            entry.pop("wall_clock_s")
        return report, len(reads)

    both, nreads = bench(a_only, x_only)
    assert nreads == 1
    assert both == {**bench(a_only)[0], **bench(x_only)[0]}
    assert both["a"] != both["x"]


def test_bench_reuses_generated_code(capsys, tmp_path, programs):
    """The first of N trials generates the code, the other N - 1 reuse it;
    the code is kept with the program."""
    n = 600
    a = tmp_path / "a.txt"
    write_dense_text(str(a), [n], [1.0] * n)
    rc = run_cli(["bench", "--kernel", KERNELS / "dot.cin", "--tensor", f"A={a}",
                  "--tensor", f"B={a}", "--trials", "3"])
    report = json.loads(capsys.readouterr().out)["default"]
    assert rc == 0
    assert (report["backend"], report["codegen"], report["loop_iterations"]) == (
        "python", "cached", n)
    (entry,) = programs.entries.values()
    assert entry.code is not None


def test_bench_dense_dot_iterations_equal_length(capsys, tmp_path):
    n = 17
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_dense_text(str(a), [n], [1.0] * n)
    write_dense_text(str(b), [n], [2.0] * n)
    rc = run_cli(["bench", "--kernel", KERNELS / "dot.cin",
                  "--tensor", f"A={a}", "--tensor", f"B={b}", "--trials", "1"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["default"]["loop_iterations"] == n


def test_dump_simplified(capsys, tmp_path):
    k = tmp_path / "k.cin"
    k.write_text("@V i in 1:10 (C[] += 2 * 3)\n")
    rc = run_cli(["compile", "--kernel", k, "--dump-simplified"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "C[] += 60" in out


def test_out_file(tmp_path, capsys):
    a = tmp_path / "a.txt"
    write_dense_text(str(a), [3], [1.0, 2.0, 3.0])
    out = tmp_path / "ir.txt"
    rc = run_cli(["compile", "--kernel", KERNELS / "rle_sum.cin",
                  "--tensor", f"A={a},format=rle", "--out", out])
    assert rc == 0
    assert "C.init" in out.read_text()


def test_params_reach_the_kernel(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_dense_text(str(a), [2], [1.0, 2.0])
    write_dense_text(str(b), [1], [3.0])
    rc = run_cli(["run", "--kernel", KERNELS / "concat.cin",
                  "--tensor", f"A={a}", "--tensor", f"B={b}",
                  "--tensor", "C=out:dims=3", "--param", "na=2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["outputs"]["C"] == [1.0, 2.0, 3.0]


def test_protocols_do_not_travel_in_params(capsys):
    # a parameter may be named like anything, and protocols still apply
    args = ["run", "--kernel", KERNELS / "dot.cin",
            "--tensor", "A=random:dims=8,density=0.5,seed=1,format=splist",
            "--tensor", "B=random:dims=8,density=0.5,seed=2,format=splist",
            "--protocol", "A.1=gallop", "--json"]
    reports = []
    for extra in ([], ["--param", "__protocols__=1"], ["--protocol", "A.1=walk"]):
        assert run_cli(args + extra) == 0
        reports.append(json.loads(capsys.readouterr().out)["counters"])
    assert reports[0] == reports[1] != reports[2]


def test_double_underscore_param_reaches_the_kernel(capsys, tmp_path):
    k = tmp_path / "k.cin"
    k.write_text("@V i in 1:$__n (C[] += 2)\n")
    rc = run_cli(["run", "--kernel", k, "--param", "__n=3", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["C"] == [6.0]


@pytest.mark.parametrize("spec", ["random:dims10", "random:dims=1xq",
                                  "random:dims=4,density=abc", "random:dims=4,seed=z",
                                  "random:dims=4,density=2", "random:dims=4,density=-0.1",
                                  "random:dims=4,density=nan"])
def test_malformed_random_spec_exit_2(capsys, spec):
    rc = run_cli(["run", "--kernel", KERNELS / "dot.cin", "--tensor", f"A={spec}",
                  "--tensor", "B=random:dims=4"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("entry", ["1 2", "1 x 2.0", "1 2 abc"])
def test_malformed_matrix_market_entry_exit_2(capsys, tmp_path, entry):
    mtx = tmp_path / "m.mtx"
    mtx.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n")
    rc = run_cli(["run", "--kernel", KERNELS / "spmspv.cin",
                  "--tensor", f"A={mtx},format=dense.splist",
                  "--tensor", "x=random:dims=2,density=0.5,seed=2,format=splist"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", ["dims: 3\n1 two 2\n", "dims: 2\ntrue 1.5\n",
                                  "dims: 3x\n1 2 3\n"])
def test_malformed_dense_text_exit_2(capsys, tmp_path, text):
    path = tmp_path / "v.txt"
    path.write_text(text)
    rc = run_cli(["run", "--kernel", KERNELS / "dot.cin", "--tensor", f"A={path}",
                  "--tensor", "B=random:dims=3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_run_rejects_over_deep_kernel_exit_2(capsys, tmp_path):
    # forall, assign, access and index, with a sqrt and an add per level: at
    # MAX_DEPTH nodes tall; the leading minus puts it one level past the bound
    levels = (MAX_DEPTH - 4) // 2
    path = tmp_path / "deep.cin"
    path.write_text("@V i C[i] = -" + "sqrt(" * levels + "A[i]" + " + 1.0)" * levels)
    rc = run_cli(["run", "--kernel", path, "--tensor", "A=random:dims=8,density=1.0,seed=1"])
    assert rc == 2
    assert f"nests deeper than {MAX_DEPTH} levels" in capsys.readouterr().err


@pytest.mark.parametrize("rhs,message", [
    ("eq(A[i], 1.0, 2.0)", "eq takes 2 operand(s), got 3"),
    ("eq(1, 2, 3)", "eq takes 2 operand(s), got 3"),  # would fold at compile time
    ("select(A[i] > 0.5, 1.0)", "select takes 3 operand(s), got 2"),
    ("sqrt(A[i], A[i])", "sqrt takes 1 operand(s), got 2"),  # would drop its second
])
def test_run_rejects_wrong_arity_call_exit_2(capsys, tmp_path, rhs, message):
    kernel = tmp_path / "k.cin"
    kernel.write_text(f"@V i C[i] = {rhs}\n")
    a = tmp_path / "a.txt"
    write_dense_text(str(a), [3], [0.25, 0.5, 1.0])
    rc = run_cli(["run", "--kernel", kernel, "--tensor", f"A={a}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err and "Traceback" not in err


# pow and round over A = 0.0 1.0 2.0 (and an int A = 2 3 4): each used to end
# in a Python traceback, or let a complex reach the writer
DOMAIN_ERRORS = [
    ("pow(A[i], -1)", "float", "pow(0.0, -1): zero to a negative power"),
    # a literal call that raises is left unfolded, for run time
    ("A[i] + pow(0.0, -1)", "float", "pow(0.0, -1): zero to a negative power"),
    ("round(A[i] * 1e308 * 10.0)", "float", "round of non-finite value inf"),
    ("round(A[i] * 1e308 * 10.0 - A[i] * 1e308 * 20.0)", "float",
     "round of non-finite value nan"),
    # x - x is nan where x is inf, in compiled code as in the oracle
    ("round(A[i] * 1e308 * 10.0 - A[i] * 1e308 * 10.0)", "float",
     "round of non-finite value nan"),
    ("pow(A[i] + 9.0, 400)", "float", "pow(9.0, 400): out of the float range"),
    ("pow(A[i] - 1.0, 0.5)", "float", "pow(-1.0, 0.5): negative base to a fractional power"),
    # refused before the power is computed
    ("pow(A[i], 64)", "int", "integer overflow: 2 ** 64"),
]


@pytest.mark.parametrize("cmd", ["run", "check"])
@pytest.mark.parametrize("rhs,dtype,message", DOMAIN_ERRORS)
def test_pow_and_round_domain_errors_exit_3(capsys, tmp_path, cmd, rhs, dtype, message):
    kernel = tmp_path / "k.cin"
    kernel.write_text(f"@V i C[i] = {rhs}\n")
    a = tmp_path / "a.txt"
    write_dense_text(str(a), [3], [0.0, 1.0, 2.0] if dtype == "float" else [2, 3, 4])
    rc = run_cli([cmd, "--kernel", kernel, "--tensor", f"A={a}"]
                 + (["--trials", "1"] if cmd == "check" else []))
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"runtime error: {message}\n"


def test_check_oracle_error_exit_3(capsys, tmp_path):
    """The compiled code visits only A's stored entry, where B is 0; the
    oracle visits every cell and rounds nan where B is 1 or 2."""
    kernel = tmp_path / "k.cin"
    kernel.write_text("@V i C[i] = A[i] * round(B[i] * 1e308 * 10.0 - B[i] * 1e308 * 10.0)\n")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_dense_text(str(a), [3], [1.0, 0.0, 0.0])
    write_dense_text(str(b), [3], [0.0, 1.0, 2.0])
    rc = run_cli(["check", "--kernel", kernel, "--tensor", f"A={a},format=splist",
                  "--tensor", f"B={b}", "--trials", "1"])
    assert rc == 3
    assert capsys.readouterr().err == "runtime error: round of non-finite value nan\n"


@pytest.mark.parametrize("cmd", ["run", "check"])
def test_value_sum_overflow_exit_3(capsys, tmp_path, cmd):
    """A + MAX + 1 overflows before MAX is taken off: the kernel's int
    literals are not folded into A + 1."""
    kernel = tmp_path / "k.cin"
    kernel.write_text("@V i C[i] = A[i] + 9223372036854775807 + 1 - 9223372036854775807\n")
    a = tmp_path / "a.txt"
    write_dense_text(str(a), [3], [0, 1, 2])
    rc = run_cli([cmd, "--kernel", kernel, "--tensor", f"A={a}"]
                 + (["--trials", "1"] if cmd == "check" else []))
    assert rc == 3
    assert capsys.readouterr().err == "runtime error: integer overflow: 9223372036854775808\n"


@pytest.mark.parametrize("cmd", ["run", "check"])
@pytest.mark.parametrize("rhs,data", [("pow(A[i] + 0.0, 64)", [2, 3, 4]),
                                      ("pow(A[i] * 1.0, 64)", [2, 3, 4]),
                                      ("A[i] * 0 + 9223372036854775807 + 1", [0.0, 1.0, 2.0])])
def test_identity_rules_keep_the_value_type_exit_0(capsys, tmp_path, cmd, rhs, data):
    """A float unit beside an int, or an int zero beside a float, leaves the
    kernel's float value: no integer overflow."""
    kernel = tmp_path / "k.cin"
    kernel.write_text(f"@V i C[i] = {rhs}\n")
    a = tmp_path / "a.txt"
    write_dense_text(str(a), [3], data)
    rc = run_cli([cmd, "--kernel", kernel, "--tensor", f"A={a}"]
                 + (["--trials", "1"] if cmd == "check" else []))
    out = capsys.readouterr()
    assert rc == 0 and out.err == "", out
    if cmd == "check":
        assert "all 1 trials agree" in out.out


def test_check_agrees_on_nan(capsys, tmp_path):
    kernel = tmp_path / "k.cin"
    kernel.write_text("@V i C[i] = A[i] * 1e308 * 10.0 - A[i] * 1e308 * 10.0\n")
    a = tmp_path / "a.txt"
    write_dense_text(str(a), [3], [0.0, 1.0, 2.0])
    rc = run_cli(["check", "--kernel", kernel, "--tensor", f"A={a}", "--trials", "1"])
    assert rc == 0
    assert "all 1 trials agree (worst rel err 0.000e+00)" in capsys.readouterr().out


@pytest.mark.parametrize("cmd,option", [("bench", ["--json"]), ("check", ["--out", "x"]),
                                        ("bench", ["--out", "x"])])
def test_options_a_command_ignores_are_rejected(capsys, cmd, option):
    with pytest.raises(SystemExit) as e:
        run_cli([cmd, "--kernel", KERNELS / "dot.cin", *option])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_output_spec_keys_after_the_head(capsys, tmp_path):
    # the module docstring's example: format and fill follow `out:`
    kernel = tmp_path / "mul.cin"
    kernel.write_text("@V i y[i] = A[i] * B[i]\n")
    rc = run_cli(["run", "--kernel", kernel, "--json",
                  "--tensor", "A=random:format=splist,dims=8,density=0.5,seed=1",
                  "--tensor", "B=random:fill=0.0,dims=8,density=1.0,seed=2",
                  "--tensor", "y=out:format=splist,fill=0.0"])
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)["outputs"]["y"]) == 8
    kind, spec = cli.parse_tensor_spec("y", "out:format=splist,fill=0.0")
    assert kind == "out" and spec.format == ["splist"] and spec.fill == 0.0
    kind, spec = cli.parse_tensor_spec("x", "random:format=dense.rle,dims=2x3,fill=1")
    assert kind == "random" and spec.format == ["dense", "rle"] and spec.fill == 1


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
@pytest.mark.parametrize("role", ["kernel", "dense text tensor", "matrix market tensor"])
def test_unreadable_file_exit_2(capsys, tmp_path, role, case):
    path = {"missing": tmp_path / ("absent.mtx" if role == "matrix market tensor" else "absent"),
            "directory": tmp_path,
            "not utf-8": tmp_path / ("bad.mtx" if role == "matrix market tensor" else "bad")}[case]
    if case == "not utf-8":
        path.write_bytes(b"\xff\xfe\x00dims: 2\n")
    kernel, tensor = KERNELS / "dot.cin", path
    if role == "kernel":
        kernel, tensor = path, "random:dims=4"
    rc = run_cli(["run", "--kernel", kernel, "--tensor", f"A={tensor}",
                  "--tensor", "B=random:dims=4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: cannot read {path}") and "Traceback" not in err


def test_writer_overflow_exit_3(capsys, tmp_path):
    # two appends to C[1] of a sparse-list int output overflow when they combine
    path = tmp_path / "a.txt"
    write_dense_text(str(path), [1, 2], [2**62, 2**62])
    kernel = tmp_path / "k.cin"
    kernel.write_text("@V i j C[i] += A[i,j]\n")
    rc = run_cli(["run", "--kernel", kernel, "--tensor", f"A={path}",
                  "--tensor", "C=out:format=splist,dtype=int,fill=0"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "integer overflow" in err and "Traceback" not in err


def test_run_out_of_non_finite_floats_reads_back(capsys, tmp_path):
    """An output that holds only inf is written as `inf` and read back as a float."""
    a = tmp_path / "a.txt"
    write_dense_text(str(a), [2], [1e308, 1e308])
    rc = run_cli(["run", "--kernel", KERNELS / "dot.cin", "--tensor", f"A={a}",
                  "--tensor", f"B={a}", "--out", tmp_path / "r"])
    capsys.readouterr()
    assert rc == 0
    assert read_dense_text(str(tmp_path / "r.C.txt")) == ([], [float("inf")], "float")
