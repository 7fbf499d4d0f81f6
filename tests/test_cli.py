import json
import pathlib

import pytest

from coil import cli
from coil.parser import MAX_DEPTH
from coil.tensorio import write_dense_text

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


def test_run_json_report(capsys, tmp_path):
    path = tmp_path / "v.txt"
    write_dense_text(str(path), [4], [1.0, 2.0, 3.0, 4.0])
    path2 = tmp_path / "w.txt"
    write_dense_text(str(path2), [4], [1.0, 1.0, 1.0, 1.0])
    rc = run_cli(["run", "--kernel", KERNELS / "dot.cin",
                  "--tensor", f"A={path}", "--tensor", f"B={path2}", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["outputs"]["C"] == [10.0]
    assert report["counters"]["loop_iterations"] == 4
    assert report["backend"] == "interp"


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


def test_check_corrupted_rule_negative_control(capsys, tmp_path, monkeypatch):
    # sabotage the annihilation rule: 0 * x rewrites to 1 instead of 0
    import coil.rewrite as rw

    def bad_annihilate(n):
        from coil.expr import Call, Lit as L

        if isinstance(n, Call) and n.op == "mul":
            for a in n.args:
                if isinstance(a, L) and a.value in (0, 0.0):
                    return L(1.0)
        return None

    rules = [(name, bad_annihilate if name == "mul_annihilate" else fn)
             for name, fn in rw.DEFAULT_RULES]
    monkeypatch.setattr(rw, "DEFAULT_RULES", rules)
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
                                  "random:dims=4,density=abc", "random:dims=4,seed=z"])
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


def test_run_rejects_over_deep_kernel_exit_2(capsys, tmp_path):
    # forall, assign, access and index, with a sqrt and an add per level: at
    # MAX_DEPTH nodes tall; the leading minus puts it one level past the bound
    levels = (MAX_DEPTH - 4) // 2
    path = tmp_path / "deep.cin"
    path.write_text("@V i C[i] = -" + "sqrt(" * levels + "A[i]" + " + 1.0)" * levels)
    rc = run_cli(["run", "--kernel", path, "--tensor", "A=random:dims=8,density=1.0,seed=1"])
    assert rc == 2
    assert f"nests deeper than {MAX_DEPTH} levels" in capsys.readouterr().err
