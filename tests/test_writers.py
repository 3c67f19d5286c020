"""The text tables the package writes, checked byte for byte against
per-value writer loops kept here as the reference."""

import numpy as np
import pytest

from transgap.datasets import DatasetBundle, save_bundle, sbm_bundle
from transgap.experiments import (ExperimentConfig, curve_report,
                                  run_experiment)
from transgap.graphs import build_graph
from transgap.training import CSV_HEADER, Checkpoint, LrSchedule, TrainTrace


def oracle_bundle_files(bundle):
    """edges.tsv, features.csv and labels.csv written one value at a time."""
    edges = "".join(f"{u}\t{v}\n" for u, v in bundle.graph.undirected_edges())
    features = "".join(",".join(format(v, ".17g") for v in row) + "\n"
                       for row in bundle.x)
    labels = "".join(f"{int(y)}\n" for y in bundle.labels)
    return {"edges.tsv": edges, "features.csv": features,
            "labels.csv": labels}


def oracle_trace_csv(trace):
    out = CSV_HEADER + "\n"
    for cp in trace.checkpoints:
        vals = [cp.r_m, cp.r_u, cp.acc_m, cp.acc_u, cp.grad_gap, cp.dist,
                cp.g_emp]
        out += str(cp.t) + "," + ",".join(format(v, ".17g") for v in vals)
        out += "\n"
    return out


def oracle_gap_curve(traces):
    return "t,mean_gap,std\n" + "".join(
        f"{t},{format(m, '.17g')},{format(s, '.17g')}\n"
        for t, m, s in curve_report(traces))


def odd_values_bundle():
    """Signed zeros, tiny and huge magnitudes, long mantissas and an
    isolated node (3)."""
    g = build_graph([(0, 1), (1, 2), (0, 2), (2, 4)], 5)
    x = np.array([[-0.0, 1e-300, 1.0 / 3.0],
                  [0.1, -2.5e-17, 123456789.125],
                  [5e-324, -1e300, 2.0],
                  [0.0, -0.0, 0.5],
                  [np.pi, -np.e, 1e22]])
    return DatasetBundle(name="odd", graph=g, x=x,
                         labels=np.array([0, 2, 1, 0, 2]), num_classes=3)


def edgeless_bundle():
    x = np.array([[1.0, -0.0], [1e-300, 7.0]])
    return DatasetBundle(name="empty", graph=build_graph([], 2), x=x,
                         labels=np.array([1, 0]), num_classes=2)


@pytest.mark.parametrize("make", [
    odd_values_bundle, edgeless_bundle,
    lambda: sbm_bundle([15, 15], 0.3, 0.05, seed=5, d=3, signal=1.5,
                       noise=2.0),
])
def test_bundle_files_match_oracle(make, tmp_path):
    bundle = make()
    save_bundle(bundle, tmp_path)
    for name, text in oracle_bundle_files(bundle).items():
        assert (tmp_path / name).read_bytes() == text.encode("ascii"), name


def checkpoint(t, scale):
    return Checkpoint(t=t, r_m=scale / 3.0, r_u=-0.0, acc_m=1.0, acc_u=0.0,
                      grad_gap=1e-300 * scale, dist=scale * 1e17,
                      g_emp=np.sqrt(scale))


@pytest.mark.parametrize("count", [0, 1, 4])
def test_trace_csv_matches_oracle(count):
    trace = TrainTrace(checkpoints=[checkpoint(10 * (k + 1), k + 0.7)
                                    for k in range(count)])
    assert trace.to_csv() == oracle_trace_csv(trace)


def test_experiment_curves_match_oracle(tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSGAP_THREADS", "1")
    config = ExperimentConfig(
        models=("gcn", "sgc"), seeds=(0, 1, 2), train_frac=0.4, big_t=6,
        hidden=4, batch_size=1, optimizer="sgd",
        schedule=LrSchedule("inverse_time", 1.0, 10.0), eval_every=2)
    bundle = sbm_bundle([10, 10], 0.4, 0.1, seed=1, d=4, signal=2.0)
    report = run_experiment(bundle, config, out_dir=tmp_path)
    for model in config.models:
        traces = [r.trace for r in report.runs if r.model == model]
        assert ((tmp_path / f"gap_curve_{model}.csv").read_text()
                == oracle_gap_curve(traces))
    for run in report.runs:
        curve = tmp_path / f"curve_{run.model}_{run.seed}.csv"
        assert curve.read_text() == oracle_trace_csv(run.trace)
