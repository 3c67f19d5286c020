"""Analytic per-sample gradients, batched mean gradients, and an FD oracle.

``_backward`` is each architecture's one backward pass from the logit
errors of a set of rows; for gcn, sgc and gcnii it is one top-down walk
over the layers of a plan (``PropOps.row_sets``), readout first.
``grad_mean`` runs it on the plan of every node, with the errors of an
index multiset, to get the mean (or any weighted sum) of per-sample
gradients.  ``grad_sample`` returns the exact gradient of one node's
cross-entropy: gcn, sgc and gcnii run ``_backward`` on that node's error
row, down the node's own plan (built once per node); appnp and gprgnn
read one row of their filter, which feeds the same MLP backward.
``fd_gradient`` is the independent central-difference oracle used by the
test suite and the gradcheck command.
"""

from __future__ import annotations

import numpy as np

from .activations import act_deriv
from .graphs import gpr_powers
from .models import (ALL, ForwardCache, ModelSpec, PropOps, forward,
                     layout_for, loss_sample, positions, softmax_rows)


def grad_sample(spec: ModelSpec, ops: PropOps, x: np.ndarray, w: np.ndarray,
                i: int, label: int,
                cache: ForwardCache | None = None) -> np.ndarray:
    """Gradient of the cross-entropy at node i w.r.t. the flat parameters,
    from a forward over every node or over row sets that hold node i
    (without ``cache``, over node i's row sets)."""
    if cache is None:
        cache = forward(spec, ops, x, w, np.array([i]))
    layout = layout_for(spec)
    mats = layout.matrices(w)
    g = np.zeros(layout.dim)
    if spec.arch in ("appnp", "gprgnn"):
        _filter_row_grad(spec, ops, x, cache, layout, mats, g, i, label)
        return g
    top = cache.sets[-1]
    if top is not ALL and i not in top:
        raise ValueError(f"node {i} has no logits in this forward")
    plan = ops.row_sets(np.array([i]))
    err = cache.probs[positions(top, plan[0][-1])].copy()
    err[0, label] -= 1.0
    _backward(spec, ops, x, cache, layout, mats, g, err, plan)
    return g


def _filter_row_grad(spec, ops, x, cache, layout, mats, g, i, label):
    """Per-sample backward of appnp / gprgnn from row i of the filter.

    Node i's logits are that row times the MLP output h (for gprgnn, the
    gamma-weighted rows of P^k), so no whole-graph product is needed: the
    logit error enters the MLP backward as row * sigma'(pre2) * err.
    """
    h = cache.h
    if spec.arch == "appnp":
        row = ops.appnp_row(i)
        logits = row @ h
    else:
        rows = ops.power_row(i, spec.big_k)
        hop_logits = rows @ h  # row i of P^k h, k = 0..K
        row = mats["gamma"] @ rows
        logits = mats["gamma"] @ hop_logits
    err = softmax_rows(logits)
    err[label] -= 1.0
    if spec.arch == "gprgnn":
        layout.view(g, "gamma")[...] = hop_logits @ err
    dpre2 = row[:, None] * cache.sp2
    dpre2 *= err
    _mlp_backward(x, cache, layout, mats, g, dpre2)


def _mlp_backward(x, cache, layout, mats, g, dpre2):
    """W2 and W1 blocks of the node-wise MLP of appnp / gprgnn from the
    error at its output pre-activation."""
    layout.view(g, "W2")[...] = cache.s1.T @ dpre2
    dpre1 = (dpre2 @ mats["W2"].T) * cache.sp1
    layout.view(g, "W1")[...] = x.T @ dpre1


def _backward(spec, ops, x, cache, layout, mats, g, err, plan=None):
    """The backward pass of each architecture from logit errors ``err``.

    gcn, sgc and gcnii run them down ``plan`` (the forward's own row sets
    and links by default), a plan of ``PropOps.row_sets`` whose sets lie
    inside the forward's: ``err`` holds one row for each node of its top
    set, and the errors at layer l sit on its set S_l.  appnp and gprgnn
    take every node and run the errors through the transposed filter, the
    ``gpr_powers`` stack weighted by ``cache.gamma``."""
    act = spec.activation
    depth = spec.depth
    if spec.arch in ("appnp", "gprgnn"):
        if "gamma" in layout.names():
            gg = layout.view(g, "gamma")
            gg[...] = [np.sum(err * hop) for hop in cache.stack]
        dstack = gpr_powers(ops.p, err, spec.big_k)
        dh = np.tensordot(cache.gamma, dstack, axes=(0, 0))
        _mlp_backward(x, cache, layout, mats, g, dh * cache.sp2)
        return
    sets, links = plan or (cache.sets, cache.links)

    def at(l):  # where S_l sits in the forward's layer-l arrays
        return positions(cache.sets[l], sets[l])

    if spec.arch == "gcn":
        dpre = err  # the error at layer l's output, on S_l
        for l in range(depth, 0, -1):
            layout.view(g, f"W{l}")[...] = cache.zs[l - 1][at(l)].T @ dpre
            if l > 1:
                dh = ops.propagate_link(links[l], dpre @ mats[f"W{l}"].T,
                                        transpose=True)
                dpre = dh * act_deriv(act, cache.pres[l - 2][at(l - 1)])
    elif spec.arch == "sgc":
        layout.view(g, "W2")[...] = cache.zw1[at(2)].T @ err
        layout.view(g, "W1")[...] = cache.z[at(2)].T @ (err @ mats["W2"].T)
    else:  # gcnii
        alphas, betas = spec.gcnii_alphas(), spec.gcnii_betas()
        layout.view(g, f"W{depth + 1}")[...] = cache.hs[depth][at(depth)].T @ err
        dh = err @ mats[f"W{depth + 1}"].T
        x0 = x[sets[0]]
        dh0 = np.zeros((x0.shape[0], spec.h))  # the error at H0, on S_0
        for l in range(depth, 0, -1):
            dpre = dh * act_deriv(act, cache.pres[l][at(l)])
            layout.view(g, f"W{l}")[...] = betas[l - 1] * (
                cache.aggs[l - 1][at(l)].T @ dpre)
            dm = dpre @ cache.psis[l - 1].T
            dh0[positions(sets[0], sets[l])] += alphas[l - 1] * dm
            dh = (1.0 - alphas[l - 1]) * ops.propagate_link(
                links[l], dm, transpose=True)
        dh0 += dh
        layout.view(g, "W0")[...] = x0.T @ (
            dh0 * act_deriv(act, cache.pres[0][at(0)]))


def grad_mean(spec: ModelSpec, ops: PropOps, x: np.ndarray, w: np.ndarray,
              idx: np.ndarray, labels: np.ndarray,
              cache: ForwardCache | None = None,
              weights: np.ndarray | None = None) -> np.ndarray:
    """Mean gradient over an index multiset via one vectorized backward pass.

    ``weights`` (one per entry of ``idx``, of any sign) replaces the uniform
    1 / len(idx), giving the weighted sum of the per-sample gradients.
    ``cache`` is a forward over every node.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("index set must be nonempty")
    if cache is None:
        cache = forward(spec, ops, x, w)
    layout = layout_for(spec)
    mats = layout.matrices(w)
    g = np.zeros(layout.dim)

    delta = np.zeros((ops.n, spec.num_classes))
    err = cache.probs[idx].copy()
    err[np.arange(idx.size), labels[idx]] -= 1.0
    np.add.at(delta, idx,
              err / idx.size if weights is None else err * weights[:, None])

    _backward(spec, ops, x, cache, layout, mats, g, delta)
    return g


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
