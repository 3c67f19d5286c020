import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import transgap
from transgap.constants import compute_cw, measure_norms
from transgap.models import layout_for
from transgap.rng import stream

# Directory that holds the imported ``transgap`` package: ``src`` in a
# checkout, site-packages for an installed copy.
PACKAGE_ROOT = Path(transgap.__file__).resolve().parents[1]


def run_cli(args, cwd, threads="1"):
    """Run ``python -m transgap.cli ARGS`` in a child process started in ``cwd``.

    The child gets ``TRANSGAP_THREADS=threads`` (single-threaded by default)
    and has ``PACKAGE_ROOT`` in front of the inherited PYTHONPATH, so it
    imports the same ``transgap`` as this process whatever its working
    directory is.
    """
    pythonpath = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TRANSGAP_THREADS=threads, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable, "-m", "transgap.cli"] + args,
                          capture_output=True, text=True, cwd=cwd, env=env)


def run_cli_ok(args, cwd):
    """``run_cli`` that fails the calling test unless the CLI exits 0."""
    res = run_cli(args, cwd)
    assert res.returncode == 0, (
        f"transgap {' '.join(args)} exited {res.returncode}:\n{res.stderr}")
    return res


def preactivations(spec, x, w, cache):
    """The pre-activation arrays of a forward pass: gcn's and gcnii's
    ``pres``; appnp's and gprgnn's two MLP layers, recomputed from X, w and
    the cached first activation (their forward keeps neither); none for
    sgc."""
    if spec.arch in ("appnp", "gprgnn"):
        mats = layout_for(spec).matrices(w)
        return [x @ mats["W1"], cache.s1 @ mats["W2"]]
    return [] if spec.arch == "sgc" else cache.pres


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
