import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import transgap
from transgap.constants import compute_cw, measure_norms
from transgap.datasets import Split
from transgap.gradients import grad_mean
from transgap.models import forward, init_params, layout_for
from transgap.rng import stream
from transgap.training import LrSchedule, SgdConfig, evaluate, run_sgd

# Directory that holds the imported ``transgap`` package: ``src`` in a
# checkout, site-packages for an installed copy.
PACKAGE_ROOT = Path(transgap.__file__).resolve().parents[1]


def run_python(argv, cwd, threads="1"):
    """Run ``python ARGV`` in a child process started in ``cwd``.

    The child gets ``TRANSGAP_THREADS=threads`` (single-threaded by default)
    and has ``PACKAGE_ROOT`` in front of the inherited PYTHONPATH, so it
    imports the same ``transgap`` as this process whatever its working
    directory is.
    """
    pythonpath = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TRANSGAP_THREADS=threads, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable] + argv,
                          capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(args, cwd, threads="1"):
    """Run ``python -m transgap.cli ARGS`` through ``run_python``."""
    return run_python(["-m", "transgap.cli"] + args, cwd, threads)


def run_cli_ok(args, cwd):
    """``run_cli`` that fails the calling test unless the CLI exits 0."""
    res = run_cli(args, cwd)
    assert res.returncode == 0, (
        f"transgap {' '.join(args)} exited {res.returncode}:\n{res.stderr}")
    return res


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def check_sgd_against_whole_graph(spec, ops, x, labels, train, batch,
                                  sample_grad):
    """14 steps of ``run_sgd`` against a reference loop: each step takes
    the mean of ``sample_grad(w, j)`` over the drawn nodes j, and each
    checkpoint evaluates the whole graph, the gradient gap from two mean
    gradients.  The weights and every checkpoint must agree."""
    split = Split(train_idx=train,
                  test_idx=np.setdiff1d(np.arange(ops.n), train))
    config = SgdConfig(big_t=14, seed=2, batch_size=batch,
                       schedule=LrSchedule("inverse_time", 2.0, 5.0),
                       eval_every=4)
    w, trace = run_sgd(spec, ops, x, labels, split, config)
    w_ref = w_start = init_params(spec, config.seed)
    draw = stream(config.seed, "sgd_draws")
    rows, g_emp = [], 0.0
    for t in range(1, config.big_t + 1):
        eta = config.schedule.eta(t)
        picks = train[draw.integers(0, split.m, size=batch)]
        grads = [sample_grad(w_ref, int(j)) for j in picks]
        g_emp = max([g_emp] + [np.sqrt(eta) * float(np.linalg.norm(g))
                               for g in grads])
        w_ref = w_ref - eta * np.mean(grads, axis=0)
        if t % config.eval_every == 0 or t == config.big_t:
            cache = forward(spec, ops, x, w_ref)
            gap = np.linalg.norm(
                grad_mean(spec, ops, x, w_ref, split.train_idx, labels, cache)
                - grad_mean(spec, ops, x, w_ref, split.test_idx, labels, cache))
            rows.append(evaluate(spec, ops, x, labels, split, w_ref, cache)
                        + (gap, float(np.linalg.norm(w_ref - w_start)), g_emp))
    assert rel_err(w, w_ref) <= 1e-10
    assert [cp.t for cp in trace.checkpoints] == [4, 8, 12, 14]
    for cp, ref in zip(trace.checkpoints, rows):
        got = (cp.r_m, cp.r_u, cp.acc_m, cp.acc_u, cp.grad_gap, cp.dist,
               cp.g_emp)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)


def sample_weight_pair(spec, base_seed: int, pair_seed: int, radius: float = 0.5):
    """A pair (w, w') inside a common ball, plus their measured constants.

    Both points start from the seeded initialization and differ by a random
    step of at most ``radius``.  The returned c_W is the max spectral norm
    over the matrix blocks of both points, so the pair sits inside the
    spectral ball it is checked against.
    """
    from transgap.models import init_params

    layout = layout_for(spec)
    w = init_params(spec, base_seed)
    rng = stream(pair_seed, "pair_direction")
    direction = rng.normal(size=layout.dim)
    direction *= radius * rng.random() / np.linalg.norm(direction)
    w2 = w + direction
    cw = max(compute_cw(w, layout), compute_cw(w2, layout))
    return w, w2, cw


def pair_norms(spec, p, w, w2):
    """Propagation norms valid for both endpoints (gprgnn norms vary with
    the coefficient block; take the elementwise max)."""
    layout = layout_for(spec)
    if spec.arch != "gprgnn":
        return measure_norms(spec, p)
    na = measure_norms(spec, p, gamma=layout.view(w, "gamma"))
    nb = measure_norms(spec, p, gamma=layout.view(w2, "gamma"))
    from transgap.constants import PropagationNorms
    return PropagationNorms(a_inf=max(na.a_inf, nb.a_inf),
                            a2_inf=max(na.a2_inf, nb.a2_inf),
                            g_inf=max(na.g_inf, nb.g_inf),
                            power_sum=max(na.power_sum, nb.power_sum))
