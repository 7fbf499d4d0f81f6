"""Self-checks of the benchmark: determinism, metric names, the layer split.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7


@pytest.fixture(scope="module")
def bench():
    return run.Bench(*run._import_coil())


@pytest.fixture(scope="module")
def results(bench):
    """Two untraced and two traced runs of each workload, one pass or pair each."""
    out = {}
    for name in ("corpus_sweep", "spmspv_large", "image_blend"):
        out[name] = {trace: [bench.run(name, SEED, 0, trace, 0.0) for _ in range(2)]
                     for trace in (False, True)}
    return out


def values(result):
    return {k: v["value"] for k, v in result[1]["metrics"].items()}


@pytest.mark.parametrize("name", ["corpus_sweep", "spmspv_large", "image_blend"])
def test_counts_repeat_exactly_for_one_seed(results, name):
    a, b = (values(r) for r in results[name][False])
    assert (a["ir_stmts"], a["exec_ops"]) == (b["ir_stmts"], b["exec_ops"])
    assert a["ir_stmts"] > 0 and a["exec_ops"] > 0
    ta, tb = (values(r) for r in results[name][True])
    counted = [k for k, v in results[name][True][0][1]["metrics"].items()
               if v["unit"] in ("count/pass", "lines/pass")]
    assert any(k.startswith("interp.") for k in counted)
    assert {k: ta[k] for k in counted} == {k: tb[k] for k in counted}
    assert ta["lower.ir_stmts"] == a["ir_stmts"]


@pytest.mark.parametrize("name", ["corpus_sweep", "spmspv_large", "image_blend"])
def test_no_job_fails(results, name):
    for trace in (False, True):
        for info, result in results[name][trace]:
            assert result["correct"] and result["failed"] == 0, info["errors"]
            assert result["attempted"] >= 1
            m = values((info, result))
            assert m.get("lower.errors", 0) == 0 and m.get("interp.errors", 0) == 0


def test_printed_metrics_match_benchmark_json(results):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(results)
    for runs in results.values():
        for trace, want in ((False, e2e), (True, layer)):
            for _, result in runs[trace]:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == want


@pytest.mark.parametrize("name", ["corpus_sweep", "spmspv_large", "image_blend"])
def test_layer_self_times_add_up_to_job_time(results, name):
    for r in results[name][True]:
        m = values(r)
        layers = sum(m[k] for k in ("parser.s", "tensorio.s", "storage.s", "lower.s",
                                    "interp.s", "writers.freeze_s", "oracle.s",
                                    "trace.other_s"))
        assert layers == pytest.approx(m["trace.job_s"], rel=0.02)


def test_layer_split_matches_prediction(results):
    corpus = values(results["corpus_sweep"][True][0])
    layer_s = {k: v for k, v in corpus.items() if k.endswith(".s") and k != "trace.job_s"}
    assert max(layer_s, key=layer_s.get) == "lower.s"
    spmspv = values(results["spmspv_large"][True][0])
    assert spmspv["interp.s"] + spmspv["storage.s"] > 0.5 * spmspv["trace.job_s"]


def test_fails_without_coil_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "corpus_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
