"""Analytic per-sample gradients, batched mean gradients, and an FD oracle.

``_backward`` is each architecture's one backward pass from the logit
errors of a set of rows (``models.logit_error``); it returns the gradient
it builds.  For gcn, sgc and gcnii it is one top-down walk over the layers
of a plan (``PropOps.row_sets``), readout first.  It never calls the
activation: it multiplies by rows of the forward's sigma' (``sps``).
``grad_mean`` runs it on the plan of every node, with the errors of an
index multiset, to get the mean (or any weighted sum) of per-sample
gradients.  ``grad_sample`` returns the exact gradient of one node's
cross-entropy: gcn, sgc and gcnii run ``_backward`` on that node's error
row, down the node's own plan (built once per node); appnp and gprgnn run
``_filter_row_grad`` on one row of their filter (the gamma-weighted rows
of P^0..P^K of ``PropOps.power_row``), into the same MLP backward.
``fd_gradient`` is the independent central-difference oracle.
"""

from __future__ import annotations

import numpy as np

from .graphs import gpr_powers
from .models import (ALL, ForwardCache, ModelSpec, PropOps, forward,
                     layout_for, lend, logit_error, loss_sample, positions,
                     softmax_rows)


def grad_sample(spec: ModelSpec, ops: PropOps, x: np.ndarray, w: np.ndarray,
                i: int, label: int,
                cache: ForwardCache | None = None) -> np.ndarray:
    """Gradient of the cross-entropy at node i w.r.t. the flat parameters,
    from a forward over every node or for rows that hold node i (without
    ``cache``, for node i alone).  appnp and gprgnn read only the MLP of
    either forward and build node i's logits from its filter row."""
    if cache is None:
        cache = forward(spec, ops, x, w, np.array([i]))
    if spec.arch in ("appnp", "gprgnn"):
        return _filter_row_grad(spec, ops, x, w, cache, i, label)
    top = cache.sets[-1]
    if top is not ALL and i not in top:
        raise ValueError(f"node {i} has no logits in this forward")
    plan = ops.row_sets(np.array([i]))
    err = logit_error(cache.probs[positions(top, plan[0][-1])], label)
    return _backward(spec, ops, x, w, cache, err, plan)


def _filter_row_grad(spec, ops, x, w, cache, i, label):
    """Per-sample backward of appnp / gprgnn from row i of the filter.

    Node i's logits are that row times the MLP output h, the row being the
    ``cache.gamma``-weighted rows of P^k, k = 0..K (appnp's gamma is
    ``appnp_coefficients``), so no whole-graph product is needed: the logit
    error enters the MLP backward as row * sigma'(pre2) * err.
    """
    layout = layout_for(spec)
    g = np.zeros(layout.dim)
    rows = ops.power_row(i, spec.big_k)
    hop_logits = rows @ cache.h  # row i of P^k h, k = 0..K
    row = cache.gamma @ rows
    err = logit_error(softmax_rows(cache.gamma @ hop_logits), label)
    if "gamma" in layout.names():
        layout.view(g, "gamma")[...] = hop_logits @ err
    dpre2 = row[:, None] * cache.sps[1]
    dpre2 *= err
    _mlp_backward(x, cache, layout, layout.matrices(w), g, dpre2)
    return g


def _mlp_backward(x, cache, layout, mats, g, dpre2):
    """W2 and W1 blocks of the node-wise MLP of appnp / gprgnn from the
    error at its output pre-activation."""
    layout.view(g, "W2")[...] = cache.s1.T @ dpre2
    dpre1 = np.matmul(dpre2, mats["W2"].T,
                      out=lend(cache.buf, "tmp", 0, len(dpre2)))
    dpre1 *= cache.sps[0]
    layout.view(g, "W1")[...] = x.T @ dpre1


def _backward(spec, ops, x, w, cache, err, plan=None):
    """The gradient at w by each architecture's backward pass from ``err``.

    gcn, sgc and gcnii run them down ``plan`` (the forward's own row sets
    and links by default), a plan of ``PropOps.row_sets`` whose sets lie
    inside the forward's: ``err`` holds one row for each node of its top
    set, and the errors at layer l sit on its set S_l.  appnp and gprgnn
    take every node and run the errors through the transposed filter, the
    ``gpr_powers`` stack weighted by ``cache.gamma``.  Its n x h products
    and scratch go to the ``tmp`` arrays of ``cache.buf``, if any."""
    layout = layout_for(spec)
    mats = layout.matrices(w)
    g = np.zeros(layout.dim)
    depth = spec.depth
    if spec.arch in ("appnp", "gprgnn"):
        if "gamma" in layout.names():
            gg = layout.view(g, "gamma")
            gg[...] = [np.sum(err * hop) for hop in cache.stack]
        dstack = gpr_powers(ops.p, err, spec.big_k)
        dh = np.tensordot(cache.gamma, dstack, axes=(0, 0))
        dh *= cache.sps[1]
        _mlp_backward(x, cache, layout, mats, g, dh)
        return g
    sets, links = plan or (cache.sets, cache.links)

    def at(l):  # where S_l sits in the forward's layer-l arrays
        return positions(cache.sets[l], sets[l])

    if spec.arch == "gcn":
        dpre = err  # the error at layer l's output, on S_l
        for l in range(depth, 0, -1):
            layout.view(g, f"W{l}")[...] = cache.zs[l - 1][at(l)].T @ dpre
            if l > 1:
                dpre = ops.propagate_link(links[l], np.matmul(
                    dpre, mats[f"W{l}"].T,
                    out=lend(cache.buf, "tmp", 0, len(dpre))), transpose=True)
                dpre *= cache.sps[l - 2][at(l - 1)]
    elif spec.arch == "sgc":
        layout.view(g, "W2")[...] = cache.zw1[at(2)].T @ err
        layout.view(g, "W1")[...] = cache.z[at(2)].T @ np.matmul(
            err, mats["W2"].T, out=lend(cache.buf, "tmp", 0, len(err)))
    else:  # gcnii
        alphas, betas = spec.gcnii_alphas(), spec.gcnii_betas()
        layout.view(g, f"W{depth + 1}")[...] = cache.h_top[at(depth)].T @ err
        dh = err @ mats[f"W{depth + 1}"].T  # new: no lent array is free
        x0 = x[sets[0]]
        dh0 = lend(cache.buf, "tmp", 0, len(x0))  # the error at H0, on S_0
        if dh0 is None:
            dh0 = np.zeros((len(x0), spec.h))
        else:
            dh0.fill(0.0)
        # The error at H_l, then at pre_l, sits in a new array (the first
        # product's, then each sparse product's); its product with psi_l
        # goes to tmp 1, and the alpha-multiple of that overwrites it.
        for l in range(depth, 0, -1):
            dh *= cache.sps[l][at(l)]
            layout.view(g, f"W{l}")[...] = betas[l - 1] * (
                cache.aggs[l - 1][at(l)].T @ dh)
            dagg = np.matmul(dh, cache.psis[l - 1].T,
                             out=lend(cache.buf, "tmp", 1, len(dh)))
            dh0[positions(sets[0], sets[l])] += np.multiply(
                alphas[l - 1], dagg, out=dh)
            del dh  # before the sparse product makes the next one
            dh = ops.propagate_link(links[l], dagg, transpose=True)
            dh *= 1.0 - alphas[l - 1]
        dh0 += dh
        dh0 *= cache.sps[0][at(0)]
        layout.view(g, "W0")[...] = x0.T @ dh0
    return g


def grad_mean(spec: ModelSpec, ops: PropOps, x: np.ndarray, w: np.ndarray,
              idx: np.ndarray, labels: np.ndarray,
              cache: ForwardCache | None = None,
              weights: np.ndarray | None = None) -> np.ndarray:
    """Mean gradient over an index multiset via one vectorized backward pass.

    ``weights`` (one per entry of ``idx``, of any sign) replaces the uniform
    1 / len(idx), giving the weighted sum of the per-sample gradients.
    ``cache`` is a forward over every node."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("index set must be nonempty")
    if cache is None:
        cache = forward(spec, ops, x, w)
    delta = np.zeros((ops.n, spec.num_classes))
    err = logit_error(cache.probs[idx], labels[idx])
    np.add.at(delta, idx,
              err / idx.size if weights is None else err * weights[:, None])
    return _backward(spec, ops, x, w, cache, delta)


def central_differences(fn, w: np.ndarray, step: float) -> np.ndarray:
    """Coordinate-wise central differences of a scalar function of w."""
    if step <= 0:
        raise ValueError("step must be positive")
    g = np.zeros_like(w)
    wp = w.copy()
    for j in range(w.shape[0]):
        orig = wp[j]
        wp[j] = orig + step
        hi = fn(wp)
        wp[j] = orig - step
        lo = fn(wp)
        wp[j] = orig
        g[j] = (hi - lo) / (2.0 * step)
    return g


def fd_gradient(spec: ModelSpec, ops: PropOps, x: np.ndarray, w: np.ndarray,
                i: int, label: int, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the per-node loss, coordinate by coordinate."""
    return central_differences(
        lambda wp: loss_sample(spec, ops, x, wp, i, label), w, step)


def max_relative_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Componentwise relative error with a scale-aware denominator floor.

    Central differences carry absolute noise around machine_eps / step, so
    components far below the gradient's own scale cannot support a relative
    comparison; they are floored at 1e-2 of the largest reference component
    (and 1e-6 absolute for all-zero gradients).  Components above that floor
    are compared truly relatively.
    """
    scale = float(np.max(np.abs(reference), initial=0.0))
    floor = max(1e-2 * scale, 1e-6)
    denom = np.maximum(np.maximum(np.abs(reference), np.abs(analytic)), floor)
    return float(np.max(np.abs(analytic - reference) / denom))
