"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at ``--size tiny`` with and without tracing, and checks
that every metric named in BENCHMARK.json is reported with its unit, that no
command fails on this code, that a corrupted output counts as an error, that
the tracer restores every binding it replaced, and that the runner refuses
to run without the program's source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_runner():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS["full"].values()]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert BENCH["per_layer"] == [{k: row[k] for k in ("name", "unit", "better")}
                                  for row in layers.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "13", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert re.search(r"^error_rate\s+0 ratio", proc.stdout, re.M)
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_output_counts_as_error(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    runner = run.Runner(WORKLOADS["tiny"]["analyze-small"], "tiny", 2)
    gen = runner.gen(tmp_path / "p")
    [ex] = runner.run_pass(tmp_path / "p", tmp_path / "p" / "bundle", traced=False)
    assert gen.problems == [] and ex.problems == []

    out = tmp_path / "p" / "out" / "analyze.json"
    text = out.read_text()
    number = re.search(r'"c_X":([0-9.e+-]+)', text)
    corrupted = text.replace(number.group(0),
                             f'"c_X":{float(number.group(1)) * (1 + 1e-4)!r}', 1)
    out.write_text(corrupted)
    problems = check.check_outputs(runner.ref, check.files_under(out), "analyze.json")
    assert problems and "c_X" in problems[0]

    # The same bytes twice pass the repeat check; changed bytes fail it.
    runner.executions = [run.Execution("analyze.json", 0, 1.0, 1.0, 1.0, digest=d)
                         for d in ("x", "x", "y")]
    runner.check_repeats("code")
    assert [bool(e.problems) for e in runner.executions] == [False, False, True]


def test_csv_tolerance():
    ref = "t,R_m\n10,0.69314718055994529\n"
    assert check.compare_text("t,R_m\n10,0.69314718055994540\n", ref, False) is None
    assert check.compare_text("t,R_m\n10,0.6931\n", ref, False) is not None
    assert check.compare_text("t,R_m\n11,0.69314718055994529\n", ref, False) is not None
    assert check.compare_text("t,R_m\n", ref, False) is not None


def _bindings():
    import transgap  # noqa: F401
    import transgap.cli  # noqa: F401

    seen = {}
    for m in tracer._transgap_modules():
        for key, val in m.__dict__.items():
            seen[(m.__name__, key)] = val
            if isinstance(val, type):
                for k2, v2 in val.__dict__.items():
                    seen[(m.__name__, key, k2)] = v2
    return seen


def test_tracer_restores_every_binding():
    import numpy as np
    import transgap.training as training
    from transgap import ActivationSpec, ModelSpec, PropOps, init_params
    from transgap.graphs import normalized_adjacency, sbm_generate

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert training.forward is not before[("transgap.training", "forward")]
        graph, _ = sbm_generate([5, 5], 0.5, 0.1, seed=0)
        spec = ModelSpec(arch="gcn", d=3, h=4, num_classes=2,
                         activation=ActivationSpec(q=2.0))
        ops = PropOps(normalized_adjacency(graph), spec)
        training.forward(spec, ops, np.ones((10, 3)), init_params(spec, 0))
    finally:
        t.restore()
    after = _bindings()
    assert t.leftovers() == []
    assert all(after[k] is before[k] for k in before)
    stats = t.stats()
    assert stats["models.forward"]["calls"] == 1
    assert stats["models.PropOps.propagate"]["calls"] == 2
    # P X (3 columns) then P H (4 columns); one activation over the 10 x 4 layer.
    assert t.counters["spmm_nnz_cols"] == int(ops.p.values.size) * (3 + 4)
    assert t.counters["act_eval_elements"] == 40


def test_appnp_row_counts_sparse_products_only_on_the_lazy_path():
    import numpy as np
    from transgap import ActivationSpec, ModelSpec, PropOps
    from transgap.graphs import normalized_adjacency, sbm_generate

    graph, _ = sbm_generate([5, 5], 0.5, 0.1, seed=0)
    spec = ModelSpec(arch="appnp", d=3, h=4, num_classes=2,
                     activation=ActivationSpec(q=2.0))
    t = tracer.Tracer()
    t.install()
    try:
        ops = PropOps(normalized_adjacency(graph), spec)
        assert ops.filter is not None
        materialized = ops.appnp_row(0)
        assert t.counters["spmm_nnz_cols"] == 0
        ops.filter = None
        lazy = ops.appnp_row(0)
    finally:
        t.restore()
    assert np.allclose(materialized, lazy)
    assert t.counters["spmm_nnz_cols"] == int(ops.p.values.size) * spec.big_k


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "analyze-small", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
