import os

import numpy as np
import pytest

from transgap.datasets import sbm_bundle
from transgap.experiments import (ExperimentConfig, canonical_json,
                                  curve_report, model_spec_for,
                                  run_experiment, run_single)
from transgap.training import LrSchedule, TrainTrace


def small_bundle():
    return sbm_bundle([10, 10], 0.4, 0.1, seed=1, d=4, signal=2.0)


def small_config(**kw):
    base = dict(models=("gcn",), seeds=(0,), train_frac=0.4, big_t=5,
                hidden=4, batch_size=1, optimizer="sgd",
                schedule=LrSchedule("inverse_time", 1.0, 10.0), eval_every=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestModelSpecFor:
    def test_depth_variants(self):
        assert model_spec_for("gcn6", d=3, num_classes=2).depth == 6
        assert model_spec_for("gcnii6", d=3, num_classes=2).depth == 6
        assert model_spec_for("gcn", d=3, num_classes=2).depth == 2

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            model_spec_for("gat", d=3, num_classes=2)


class TestRunExperiment:
    def test_single_run_zero_std(self, tmp_path):
        os.environ["TRANSGAP_THREADS"] = "1"
        try:
            rep = run_experiment(small_bundle(), small_config(),
                                 out_dir=tmp_path)
        finally:
            del os.environ["TRANSGAP_THREADS"]
        agg = rep.aggregate()
        assert agg["results"]["gcn"]["loss_gap"]["std"] == 0.0
        assert (tmp_path / "curve_gcn_0.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_duplicate_seeds_are_identical(self):
        os.environ["TRANSGAP_THREADS"] = "1"
        try:
            rep = run_experiment(small_bundle(), small_config(seeds=(3, 3)))
        finally:
            del os.environ["TRANSGAP_THREADS"]
        runs = rep.runs
        assert runs[0].loss_gap == runs[1].loss_gap
        assert rep.aggregate()["results"]["gcn"]["loss_gap"]["std"] == 0.0

    def test_aggregate_recomputable_from_per_run_rows(self, tmp_path):
        os.environ["TRANSGAP_THREADS"] = "1"
        try:
            rep = run_experiment(small_bundle(),
                                 small_config(seeds=(0, 1, 2)),
                                 out_dir=tmp_path)
        finally:
            del os.environ["TRANSGAP_THREADS"]
        agg = rep.aggregate()
        gaps = []
        for seed in (0, 1, 2):
            text = (tmp_path / f"curve_gcn_{seed}.csv").read_text()
            trace = TrainTrace.from_csv(text)
            last = trace.checkpoints[-1]
            gaps.append(abs(last.r_m - last.r_u))
        assert agg["results"]["gcn"]["loss_gap"]["mean"] == pytest.approx(
            float(np.mean(gaps)), abs=1e-12)
        assert agg["results"]["gcn"]["loss_gap"]["std"] == pytest.approx(
            float(np.std(gaps)), abs=1e-12)

    def test_pool_matches_serial(self, tmp_path):
        bundle = small_bundle()
        cfg = small_config(models=("gcn", "sgc"), seeds=(0, 1))
        os.environ["TRANSGAP_THREADS"] = "1"
        try:
            serial = run_experiment(bundle, cfg)
        finally:
            del os.environ["TRANSGAP_THREADS"]
        os.environ["TRANSGAP_THREADS"] = "2"
        try:
            pooled = run_experiment(bundle, cfg)
        finally:
            del os.environ["TRANSGAP_THREADS"]
        assert canonical_json(serial.aggregate()) == canonical_json(
            pooled.aggregate())

    def test_failure_carries_context(self):
        from transgap.datasets import DatasetBundle

        src = small_bundle()
        x = src.x.copy()
        x[0, 0] = float("nan")
        bundle = DatasetBundle(name=src.name, graph=src.graph, x=x,
                               labels=src.labels, num_classes=src.num_classes)
        with pytest.raises(FloatingPointError, match="model=gcn, seed=0"):
            run_single(bundle, small_config(), "gcn", 0)


class TestCurveReport:
    def test_single_trace_passthrough(self):
        rep = run_single(small_bundle(), small_config(), "gcn", 0)
        rows = curve_report([rep.trace])
        cps = rep.trace.checkpoints
        assert [r[0] for r in rows] == [cp.t for cp in cps]
        for row, cp in zip(rows, cps):
            assert row[1] == pytest.approx(abs(cp.r_m - cp.r_u))
            assert row[2] == 0.0

    def test_flat_curve_for_zero_steps(self):
        cfg = small_config(schedule=LrSchedule("constant", 0.0), big_t=9,
                           eval_every=3)
        rep = run_single(small_bundle(), cfg, "gcn", 0)
        rows = curve_report([rep.trace])
        gaps = [r[1] for r in rows]
        assert max(gaps) == pytest.approx(min(gaps))

    def test_grid_mismatch_rejected(self):
        a = run_single(small_bundle(), small_config(), "gcn", 0).trace
        b = run_single(small_bundle(), small_config(big_t=7), "gcn", 0).trace
        with pytest.raises(ValueError):
            curve_report([a, b])


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1.5, "a": [1, 2.0], "c": None,
                               "d": True, "e": "x"})
        assert text == '{"a":[1,2],"b":1.5,"c":null,"d":true,"e":"x"}\n'

    def test_seventeen_digit_round_trip(self):
        import json
        val = 0.1 + 0.2
        parsed = json.loads(canonical_json({"v": val}))
        assert parsed["v"] == val

    def test_non_finite_encoded_as_strings(self):
        assert canonical_json(float("nan")) == '"nan"\n'
        assert canonical_json(float("inf")) == '"inf"\n'
