"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Each test prints a single PASS/FAIL line; the expensive multi-seed
experiment is shared by the criterion-6 checks through a session fixture
and runs single-threaded inside its stated budget.
"""

import math
import os
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import run_cli_ok, sample_weight_pair
from transgap.activations import ActivationSpec, act_deriv, act_eval
from transgap.bounds import (BoundInputs, C0, DUDLEY_FACTOR, complexity_upper,
                             concentration_terms, excess_risk_rate,
                             gap_certificate, rate_factor)
from transgap.constants import (compute_cw, compute_cx, loss_lipschitz,
                                measure_norms, spectral_norm)
from transgap.datasets import row_normalize, sbm_bundle
from transgap.experiments import ExperimentConfig, run_experiment
from transgap.gradients import fd_gradient, grad_sample, max_relative_error
from transgap.graphs import (build_graph, degree_bound, inf_norm_power,
                             normalized_adjacency, sbm_generate)
from transgap.models import (ModelSpec, PropOps, forward, init_params,
                             kink_distance, layout_for, loss_sample)
from transgap.rng import stream
from transgap.training import LrSchedule

mp.mp.dps = 50

ARCHS = ("gcn", "gcnii", "sgc", "appnp", "gprgnn")


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradients():
    from test_gradients import small_instance

    start = time.monotonic()
    worst_by_arch = {}
    for arch in ARCHS:
        worst = 0.0
        for seed in range(10):
            spec, ops, x, w, labels = small_instance(arch, seed=seed, q=2.0,
                                                     n=12, d=4, h=3, c=2)
            i = seed % ops.n
            ga = grad_sample(spec, ops, x, w, i, int(labels[i]))
            gf = fd_gradient(spec, ops, x, w, i, int(labels[i]), step=1e-6)
            worst = max(worst, max_relative_error(ga, gf))
        worst_by_arch[arch] = worst

    low_q_worst = 0.0
    for arch in ARCHS:
        checked = 0
        for seed in range(20):
            if checked >= 10:
                break
            spec, ops, x, w, labels = small_instance(arch, seed=seed, q=1.1)
            cache = forward(spec, ops, x, w)
            if kink_distance(spec, x, w, cache) <= 1e-4:
                continue
            i = seed % ops.n
            ga = grad_sample(spec, ops, x, w, i, int(labels[i]))
            gf = fd_gradient(spec, ops, x, w, i, int(labels[i]), step=1e-6)
            low_q_worst = max(low_q_worst, max_relative_error(ga, gf))
            checked += 1
    elapsed = time.monotonic() - start
    ok = (max(worst_by_arch.values()) <= 1e-5 and low_q_worst <= 1e-3
          and elapsed < 10.0)
    report("1 (gradient correctness)", ok,
           f"max_rel_err q2={max(worst_by_arch.values()):.2e} "
           f"q1.1={low_q_worst:.2e} elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. activation properties
# ---------------------------------------------------------------------------

def test_criterion_2_activation():
    violations = 0
    for q in (1.1, 1.5, 2.0):
        a = ActivationSpec(q=q)
        rng = stream(17, f"acceptance_act_{q}")
        x = rng.uniform(-3, 3, size=100_000)
        y = rng.uniform(-3, 3, size=100_000)
        violations += int(np.sum(np.abs(act_eval(a, x)) > np.abs(x)))
        violations += int(np.sum(np.abs(act_deriv(a, x)) > 1.0))
        lhs = np.abs(act_deriv(a, x) - act_deriv(a, y))
        violations += int(np.sum(lhs > q * np.abs(x - y) ** (q - 1.0) + 1e-12))
    a2 = ActivationSpec(q=2.0)
    grid = np.linspace(-3, 3, 600_001)
    sup_dev = float(np.abs(act_eval(a2, grid) - np.maximum(grid, 0)).max())
    gap_ok = abs(a2.relu_gap() - 0.25) <= 1e-12 and sup_dev <= 0.25 + 1e-12
    knee_dev = abs(float(act_eval(a2, a2.t)) - a2.t)
    attained = abs(knee_dev - a2.relu_gap()) <= 1e-12
    ok = violations == 0 and gap_ok and attained
    report("2 (activation properties)", ok,
           f"violations={violations} relu_gap={a2.relu_gap():.17g}")


# ---------------------------------------------------------------------------
# 3. loss-Lipschitz soundness
# ---------------------------------------------------------------------------

def test_criterion_3_lipschitz_soundness():
    bundle = sbm_bundle([30, 30], 0.2, 0.04, seed=60, d=6, signal=1.0)
    x = row_normalize(bundle.x)
    p = normalized_adjacency(bundle.graph)
    c_x = compute_cx(x)
    total_violations = 0
    for arch in ARCHS:
        spec = ModelSpec(arch=arch, d=6, h=8, num_classes=3,
                         activation=ActivationSpec(q=2.0), big_k=4)
        ops = PropOps(p, spec)
        layout = layout_for(spec)
        pairs, cw_ball = [], 0.0
        gammas = []
        for k in range(1000):
            w, w2, cw = sample_weight_pair(spec, base_seed=7, pair_seed=k)
            pairs.append((w, w2))
            cw_ball = max(cw_ball, cw)
            if arch == "gprgnn":
                gammas.append(layout.view(w, "gamma"))
                gammas.append(layout.view(w2, "gamma"))
        if arch == "gprgnn":
            norm_list = [measure_norms(spec, p, gamma=g) for g in gammas]
            from transgap.constants import PropagationNorms
            norms = PropagationNorms(
                a_inf=p.inf_norm,
                a2_inf=max(n.a2_inf for n in norm_list),
                g_inf=max(n.g_inf for n in norm_list),
                power_sum=max(n.power_sum for n in norm_list))
        else:
            norms = measure_norms(spec, p)
        l_f = loss_lipschitz(spec, c_x, cw_ball, norms).value
        for k, (w, w2) in enumerate(pairs):
            node = k % ops.n
            label = int(bundle.labels[node])
            lhs = abs(loss_sample(spec, ops, x, w, node, label)
                      - loss_sample(spec, ops, x, w2, node, label))
            if lhs > l_f * np.linalg.norm(w - w2) + 1e-12:
                total_violations += 1
    report("3 (Lipschitz soundness)", total_violations == 0,
           f"violations={total_violations} over 5x1000 pairs")


# ---------------------------------------------------------------------------
# 4. constant orderings
# ---------------------------------------------------------------------------

def test_criterion_4_orderings():
    q2 = ActivationSpec(q=2.0)
    sgc_ok = gcnii_ok = gpr_ok = norm_ok = True
    worst_gcnii = 0.0
    for seed in range(100):
        g, _ = sbm_generate([12, 10], 0.35, 0.08, seed=seed)
        p = normalized_adjacency(g)
        c_x, c_w = 1.0 + 0.01 * seed, 1.0 + 0.02 * (seed % 7)
        gcn = ModelSpec(arch="gcn", d=4, h=3, num_classes=2, activation=q2)
        sgc = ModelSpec(arch="sgc", d=4, h=3, num_classes=2, activation=q2)
        l_gcn = loss_lipschitz(gcn, c_x, c_w, measure_norms(gcn, p)).value
        l_sgc = loss_lipschitz(sgc, c_x, c_w, measure_norms(sgc, p)).value
        sgc_ok &= l_sgc <= l_gcn + 1e-12

        gcnii = ModelSpec(arch="gcnii", d=4, h=3, num_classes=2,
                          activation=q2, alpha1=0.0, alpha2=0.0,
                          beta1=0.0, beta2=0.0)
        l_gcnii = loss_lipschitz(gcnii, c_x, c_w,
                                 measure_norms(gcnii, p)).value
        worst_gcnii = max(worst_gcnii, abs(l_gcnii - l_gcn))
        gcnii_ok &= abs(l_gcnii - l_gcn) <= 1e-12

        gpr = ModelSpec(arch="gprgnn", d=4, h=3, num_classes=2,
                        activation=q2, big_k=4)
        gamma = np.array([0.1 * 0.9 ** k for k in range(4)] + [0.9 ** 4])
        norms = measure_norms(gpr, p, gamma=gamma)
        l_gpr = loss_lipschitz(gpr, c_x, c_w, norms).value
        l2 = 2.0 * c_x * c_w * norms.g_inf
        gpr_ok &= l_gpr >= l2 - 1e-12

        norm_ok &= p.inf_norm <= degree_bound(g.degree_stats()) + 1e-12
    ok = sgc_ok and gcnii_ok and gpr_ok and norm_ok
    report("4 (constant orderings)", ok,
           f"sgc<=gcn={sgc_ok} gcnii_eq(max_dev={worst_gcnii:.1e})={gcnii_ok} "
           f"gpr>=l2={gpr_ok} degree_bound={norm_ok}")


# ---------------------------------------------------------------------------
# 5. formula oracles at 1e-10
# ---------------------------------------------------------------------------

def test_criterion_5_formula_oracles():
    checks = []

    q, s, c0 = concentration_terms(1, 1)
    checks.append(abs(q - 2.0) <= 1e-10)
    checks.append(abs(s - float(mp.mpf(8) / 3)) <= 1e-10)
    checks.append(abs(c0 - float(mp.sqrt(32 * mp.log(4 * mp.e) / 3))) <= 1e-10)
    checks.append(abs(concentration_terms(5, 5)[0] - 0.4) <= 1e-10)

    dudley = mp.sqrt(mp.log(3)) + mp.mpf(3) / 2 * mp.sqrt(mp.pi)
    checks.append(abs(DUDLEY_FACTOR - float(dudley)) <= 1e-10)
    scale = mp.mpf(2) ** mp.mpf("1.5")
    toy = scale + 12 * scale * dudley
    checks.append(abs(complexity_upper(1, 1, 1, 1, 1, 1) - float(toy)) <= 1e-10)

    rep = gap_certificate(BoundInputs(m=1, u=1, dim=1, big_t=1, delta=0.5,
                                      alpha=1.0, l_f=1.0, radius=1.0,
                                      b_loss=1.0))
    golden_total = (toy + mp.sqrt(32 * mp.log(4 * mp.e) / 3) * 2
                    + mp.sqrt(mp.mpf(8) / 3 * 2 / 2 * mp.log(4)))
    checks.append(abs(rep.total - float(golden_total)) <= 1e-10)

    checks.append(abs(rate_factor(0.5, math.e) - 1.0) <= 1e-10)
    checks.append(abs(rate_factor(1.0, 100)
                      - float(mp.sqrt(mp.log(100)))) <= 1e-10)
    checks.append(abs(excess_risk_rate(0.5, 16).optimization - 0.25) <= 1e-10)
    checks.append(abs(excess_risk_rate(0.3, 1).optimization - 1.0) <= 1e-10)
    checks.append(abs(excess_risk_rate(1.0, math.e, delta=math.exp(-1))
                      .optimization - float(1 / mp.e)) <= 1e-10)

    report("5 (formula oracles)", all(checks),
           f"{sum(checks)}/{len(checks)} oracle values within 1e-10 "
           f"(c0={C0:.6f}, dudley={DUDLEY_FACTOR:.6f})")


# ---------------------------------------------------------------------------
# 6. qualitative experiment reproduction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment_results():
    bundle = sbm_bundle([100, 100], 0.1, 0.01, seed=0, d=8, signal=1.5,
                        noise=2.0)
    config = ExperimentConfig(
        models=("gcn", "sgc", "gcn6", "gcnii", "gcnii6"),
        seeds=tuple(range(10)), train_frac=0.30, big_t=300,
        hidden=64, batch_size=1, optimizer="sgd",
        schedule=LrSchedule(kind="inverse_time", c=3.0, t0=100.0),
        eval_every=30, q=2.0)
    old = os.environ.get("TRANSGAP_THREADS")
    os.environ["TRANSGAP_THREADS"] = "1"
    start = time.monotonic()
    try:
        rep = run_experiment(bundle, config)
    finally:
        if old is None:
            del os.environ["TRANSGAP_THREADS"]
        else:
            os.environ["TRANSGAP_THREADS"] = old
    return rep, time.monotonic() - start


def test_criterion_6a_linear_model_gap_smaller(experiment_results):
    rep, _ = experiment_results
    agg = rep.aggregate()["results"]
    sgc, gcn = agg["sgc"]["loss_gap"]["mean"], agg["gcn"]["loss_gap"]["mean"]
    report("6a (sgc gap < gcn gap)", sgc < gcn,
           f"sgc={sgc:.4f} gcn={gcn:.4f}")


def test_criterion_6b_gap_grows_with_iterations(experiment_results):
    rep, _ = experiment_results
    wins = 0
    for run in rep.runs:
        if run.model != "gcn":
            continue
        by_t = {cp.t: abs(cp.r_m - cp.r_u) for cp in run.trace.checkpoints}
        wins += int(by_t[300] >= by_t[30])
    report("6b (gcn gap grows in >=8/10 seeds)", wins >= 8, f"wins={wins}/10")


def test_criterion_6c_depth_effects(experiment_results):
    rep, elapsed = experiment_results
    agg = rep.aggregate()["results"]
    gcn = agg["gcn"]["loss_gap"]["mean"]
    gcn6 = agg["gcn6"]["loss_gap"]["mean"]
    gcnii = agg["gcnii"]["loss_gap"]["mean"]
    gcnii6 = agg["gcnii6"]["loss_gap"]["mean"]
    ok = gcn6 > gcn and gcnii6 <= 1.5 * gcnii and elapsed < 300.0
    report("6c (depth effects within budget)", ok,
           f"gcn6={gcn6:.4f}>gcn={gcn:.4f}, gcnii6={gcnii6:.4f}"
           f"<=1.5*gcnii={1.5 * gcnii:.4f}, elapsed={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. CLI determinism
# ---------------------------------------------------------------------------

def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_7_cli_determinism(tmp_path):
    gen_flags = ["gen", "--blocks", "10,10", "--pin", "0.3", "--pout", "0.05",
                 "--seed", "5", "--d", "4"]
    run_cli_ok(gen_flags + ["--out", str(tmp_path / "bundle")], tmp_path)
    checks = {}

    for rep in ("a", "b"):
        run_cli_ok(gen_flags + ["--out", str(tmp_path / f"gen_{rep}")],
                   tmp_path)
    checks["gen"] = (_tree_bytes(tmp_path / "gen_a")
                     == _tree_bytes(tmp_path / "gen_b"))

    data = str(tmp_path / "bundle")
    for rep in ("a", "b"):
        run_cli_ok(["analyze", "--data", data, "--model", "gcn", "--T", "10",
                    "--hidden", "4", "--out", str(tmp_path / f"an_{rep}.json")],
                   tmp_path)
    checks["analyze"] = ((tmp_path / "an_a.json").read_bytes()
                         == (tmp_path / "an_b.json").read_bytes())

    for rep in ("a", "b"):
        run_cli_ok(["train", "--data", data, "--model", "gcn", "--T", "15",
                    "--hidden", "4", "--seed", "2",
                    "--out", str(tmp_path / f"tr_{rep}.csv")], tmp_path)
    checks["train"] = ((tmp_path / "tr_a.csv").read_bytes()
                       == (tmp_path / "tr_b.csv").read_bytes())

    for rep in ("a", "b"):
        run_cli_ok(["experiment", "--data", data, "--models", "gcn,sgc",
                    "--seeds", "2", "--T", "8", "--hidden", "4",
                    "--optimizer", "sgd", "--batch-size", "1",
                    "--out", str(tmp_path / f"ex_{rep}")], tmp_path)
    checks["experiment"] = (_tree_bytes(tmp_path / "ex_a")
                            == _tree_bytes(tmp_path / "ex_b"))

    outs = [run_cli_ok(["gradcheck", "--model", "sgc", "--instances", "3"],
                       tmp_path).stdout for _ in ("a", "b")]
    checks["gradcheck"] = outs[0] == outs[1]

    report("7 (CLI determinism)", all(checks.values()), str(checks))


# ---------------------------------------------------------------------------
# 8. oracle equivalence on small instances
# ---------------------------------------------------------------------------

def test_criterion_8_small_instance_oracles():
    corpus = [build_graph([(0, 1), (1, 2)], 3),
              build_graph([(0, 1), (0, 2), (1, 2)], 3),
              build_graph([], 5),
              build_graph([(0, i) for i in range(1, 8)], 8)]
    corpus += [sbm_generate([10, 8], 0.4, 0.1, seed=s)[0] for s in range(10)]
    norm_ok = True
    for g in corpus:
        assert g.n <= 20
        p = normalized_adjacency(g)
        dense = np.asarray(p.to_scipy().todense())
        for k in range(6):
            expect = np.linalg.norm(np.linalg.matrix_power(dense, k),
                                    ord=np.inf)
            got = inf_norm_power(p, k)
            norm_ok &= bool(np.isclose(got, expect, rtol=1e-12, atol=1e-300))

    svd_ok = True
    rng = stream(4, "acceptance_svd")
    for trial in range(50):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rng.normal(size=(rows, cols))
        est = spectral_norm(m)
        svd_ok &= abs(est.value - np.linalg.svd(m)[1][0]) <= 1e-8

    spec = ModelSpec(arch="gcnii", d=8, h=8, num_classes=8,
                     activation=ActivationSpec(q=2.0))
    layout = layout_for(spec)
    w = init_params(spec, 3)
    cw = compute_cw(w, layout)
    brute = max(np.linalg.svd(layout.view(w, n))[1][0]
                for n, _ in layout.blocks)
    svd_ok &= abs(cw - brute) <= 1e-8

    report("8 (small-instance oracles)", norm_ok and svd_ok,
           f"matrix_power={norm_ok} svd={svd_ok}")
