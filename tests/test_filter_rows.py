"""Row-local steps of appnp and gprgnn.

A forward for drawn rows stops at the node-wise MLP for the two filter
models, a whole-graph forward forms every node's logits, and
``grad_sample`` builds the drawn node's logits from its filter row.  These
tests hold the whole-graph formula the row path replaced as an oracle.
"""

import numpy as np
import pytest
from conftest import check_sgd_against_whole_graph, rel_err

import transgap.models as models
from transgap.activations import ActivationSpec, act_deriv
from transgap.datasets import Split
from transgap.gradients import grad_mean, grad_sample
from transgap.graphs import (appnp_coefficients, build_graph,
                             normalized_adjacency)
from transgap.models import ModelSpec, PropOps, forward, init_params, layout_for
from transgap.training import SgdConfig, evaluate, run_sgd

FILTER_ARCHS = ("appnp", "gprgnn")


def graph():
    """Two dense-ish clusters joined by one edge, a pendant path and an
    isolated node (28 nodes)."""
    rng = np.random.default_rng(5)
    edges = [(i, j) for i in range(24) for j in range(i + 1, 24)
             if (i < 12) == (j < 12) and rng.random() < 0.3]
    edges += [(11, 12), (23, 24), (24, 25), (25, 26)]
    return build_graph(edges, 28)


def instance(arch, q=2.0, seed=0, materialize=True, monkeypatch=None):
    spec = ModelSpec(arch=arch, d=5, h=6, num_classes=3,
                     activation=ActivationSpec(q=q), gamma=0.15, big_k=5)
    if not materialize:
        monkeypatch.setattr(models, "FILTER_MATERIALIZE_LIMIT", 0)
    ops = PropOps(normalized_adjacency(graph()), spec)
    assert (ops.filter is not None) == (arch == "appnp" and materialize)
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.normal(size=(ops.n, spec.d))
    labels = rng.integers(0, spec.num_classes, size=ops.n)
    w = init_params(spec, seed)
    if arch == "gprgnn":  # move gamma off the teleport values
        layout_for(spec).view(w, "gamma")[...] += 0.05 * rng.normal(
            size=spec.big_k + 1)
    return spec, ops, x, labels, w


def dense_power_rows(ops, i, big_k):
    """Rows i of P^0..P^K from the dense matrix."""
    dense = ops.p.to_scipy().toarray()
    rows = [np.eye(ops.n)[i]]
    for _ in range(big_k):
        rows.append(rows[-1] @ dense)
    return np.array(rows)


def whole_graph_grad(spec, ops, x, w, i, label):
    """The whole-graph per-sample formula: whole-graph logits, one dense
    filter row, and n x h products for the W1 block."""
    cache = forward(spec, ops, x, w)
    layout = layout_for(spec)
    mats = layout.matrices(w)
    act = spec.activation
    g = np.zeros(layout.dim)
    err = cache.probs[i].copy()
    err[label] -= 1.0
    rows = dense_power_rows(ops, i, spec.big_k)
    if spec.arch == "appnp":
        g_row = appnp_coefficients(spec.gamma, spec.big_k) @ rows
    else:
        g_row = mats["gamma"] @ rows
        gg = layout.view(g, "gamma")
        for k in range(spec.big_k + 1):
            gg[k] = err @ cache.stack[k][i]
    sp2 = act_deriv(act, cache.s1 @ mats["W2"])
    layout.view(g, "W2")[...] = (cache.s1.T @ (g_row[:, None] * sp2)) * err
    back = (sp2 * err[None, :]) @ mats["W2"].T
    sp1 = act_deriv(act, x @ mats["W1"])
    layout.view(g, "W1")[...] = x.T @ (g_row[:, None] * sp1 * back)
    return g


class TestRowGradient:
    @pytest.mark.parametrize("arch", FILTER_ARCHS)
    @pytest.mark.parametrize("materialize", [True, False])
    @pytest.mark.parametrize("q", [2.0, 1.5])
    def test_matches_whole_graph_formula(self, arch, materialize, q,
                                         monkeypatch):
        spec, ops, x, labels, w = instance(arch, q=q, materialize=materialize,
                                           monkeypatch=monkeypatch)
        layout = layout_for(spec)
        cache = forward(spec, ops, x, w)
        # cluster nodes, the bridge, the pendant path and the isolated node
        for i in (0, 5, 11, 12, 23, 26, 27):
            got = grad_sample(spec, ops, x, w, i, int(labels[i]), cache=cache)
            want = whole_graph_grad(spec, ops, x, w, i, int(labels[i]))
            assert rel_err(got, want) <= 1e-12
            for name in layout.names():
                block = layout.slice_of(name)
                assert rel_err(got[block], want[block]) <= 1e-12, name

    @pytest.mark.parametrize("arch", FILTER_ARCHS)
    def test_matches_one_node_mean_gradient(self, arch):
        spec, ops, x, labels, w = instance(arch, seed=3)
        for i in (2, 20, 27):
            one = np.array([i])
            assert rel_err(grad_sample(spec, ops, x, w, i, int(labels[i])),
                           grad_mean(spec, ops, x, w, one, labels)) <= 1e-12



def filter_oracle_grad_mean(spec, ops, x, w, idx, labels):
    """Mean gradient of appnp with every whole-graph filter product taken
    by the stored filter matrix (the filter is symmetric)."""
    cache = forward(spec, ops, x, w)
    layout = layout_for(spec)
    mats = layout.matrices(w)
    probs = models.softmax_rows(ops.filter.matmat(cache.h))
    delta = np.zeros_like(probs)
    err = probs[idx].copy()
    err[np.arange(idx.size), labels[idx]] -= 1.0
    np.add.at(delta, idx, err / idx.size)
    dpre2 = ops.filter.matmat(delta) * cache.sps[1]
    g = np.zeros(layout.dim)
    layout.view(g, "W2")[...] = cache.s1.T @ dpre2
    layout.view(g, "W1")[...] = x.T @ ((dpre2 @ mats["W2"].T) * cache.sps[0])
    return g


class TestAppnpIsFixedGprgnn:
    """appnp's whole-graph product and backward are gprgnn's, with the
    coefficient block fixed at ``appnp_coefficients``."""

    @pytest.mark.parametrize("materialize", [True, False])
    @pytest.mark.parametrize("q", [2.0, 1.5])
    def test_bitwise_equal_to_gprgnn_with_teleport_coefficients(
            self, materialize, q, monkeypatch):
        spec, ops, x, labels, w = instance("appnp", q=q, seed=2,
                                           materialize=materialize,
                                           monkeypatch=monkeypatch)
        gspec = ModelSpec(arch="gprgnn", d=spec.d, h=spec.h,
                          num_classes=spec.num_classes,
                          activation=spec.activation, big_k=spec.big_k)
        gops = PropOps(ops.p, gspec)
        glayout = layout_for(gspec)
        gw = np.concatenate(
            [w, appnp_coefficients(spec.gamma, spec.big_k)])
        assert glayout.dim == gw.size
        np.testing.assert_array_equal(forward(spec, ops, x, w).logits,
                                      forward(gspec, gops, x, gw).logits)
        idx = np.array([0, 3, 3, 11, 12, 20, 26, 27])
        got = grad_mean(spec, ops, x, w, idx, labels)
        want = grad_mean(gspec, gops, x, gw, idx, labels)
        layout = layout_for(spec)
        for name in ("W1", "W2"):
            np.testing.assert_array_equal(layout.view(got, name),
                                          glayout.view(want, name))

    @pytest.mark.parametrize("q", [2.0, 1.5])
    def test_matches_stored_filter(self, q):
        spec, ops, x, labels, w = instance("appnp", q=q, seed=6)
        cache = forward(spec, ops, x, w)
        want = ops.filter.matmat(cache.h)
        assert rel_err(cache.logits, want) <= 1e-12
        idx = np.array([1, 4, 4, 12, 19, 25, 27])
        got = grad_mean(spec, ops, x, w, idx, labels)
        oracle = filter_oracle_grad_mean(spec, ops, x, w, idx, labels)
        assert rel_err(got, oracle) <= 1e-12
        layout = layout_for(spec)
        for name in ("W1", "W2"):
            block = layout.slice_of(name)
            assert rel_err(got[block], oracle[block]) <= 1e-12, name

class TestFilterForward:
    @pytest.mark.parametrize("arch", FILTER_ARCHS)
    def test_step_reads_no_whole_graph_product(self, arch, monkeypatch):
        spec, ops, x, labels, w = instance(arch)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(models, "gpr_powers",
                            counted("gpr_powers", models.gpr_powers))
        step = forward(spec, ops, x, w, np.array([4]))
        grad_sample(spec, ops, x, w, 4, int(labels[4]), cache=step)
        assert calls == []
        cache = forward(spec, ops, x, w)
        assert len(calls) == 1
        probs = cache.probs
        assert cache.logits.shape == probs.shape == (ops.n, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-14)
        if arch == "gprgnn":
            assert cache.stack.shape == (spec.big_k + 1, ops.n, 3)
        evaluate(spec, ops, x, labels, Split(np.arange(10), np.arange(10, 28)),
                 w, cache=cache)
        assert len(calls) == 1

    def test_in_place_change_of_w_after_forward(self):
        spec, ops, x, _, w = instance("gprgnn")
        expect = forward(spec, ops, x, w).logits
        cache = forward(spec, ops, x, w)
        w[:] = 0.0
        np.testing.assert_array_equal(cache.logits, expect)

    @pytest.mark.parametrize("arch", FILTER_ARCHS)
    def test_non_finite_mlp_output_raises_in_forward(self, arch):
        spec, ops, x, _, w = instance(arch)
        layout_for(spec).view(w, "W1")[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="MLP output"):
            forward(spec, ops, x, w)

    def test_non_finite_filter_coefficient_raises_in_forward(self):
        spec, ops, x, _, w = instance("gprgnn")
        layout_for(spec).view(w, "gamma")[2] = np.nan
        with pytest.raises(FloatingPointError, match="coefficients"):
            forward(spec, ops, x, w)

    @pytest.mark.parametrize("arch", FILTER_ARCHS)
    def test_run_sgd_stops_at_the_first_non_finite_step(self, arch,
                                                         monkeypatch):
        # the step's own forward raises, before the step's update and
        # long before the first checkpoint
        import transgap.training as training

        spec, ops, x, labels, w = instance(arch)
        split = Split(np.arange(0, 28, 3), np.setdiff1d(np.arange(28),
                                                         np.arange(0, 28, 3)))
        layout_for(spec).view(w, "W2")[1, 1] = np.nan
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1] is ops)
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "forward", counted)
        config = SgdConfig(big_t=20, seed=1, eval_every=10)
        with pytest.raises(FloatingPointError, match="MLP output"):
            run_sgd(spec, ops, x, labels, split, config, w0=w)
        assert calls == [True]


class TestRunSgdOnRows:
    @pytest.mark.parametrize("arch", FILTER_ARCHS)
    @pytest.mark.parametrize("batch", [1, 2])
    def test_trace_matches_whole_graph_loop(self, arch, batch):
        spec, ops, x, labels, _ = instance(arch, seed=4)
        check_sgd_against_whole_graph(
            spec, ops, x, labels, np.array([0, 3, 9, 12, 17, 24, 26, 27]),
            batch, lambda w, j: whole_graph_grad(spec, ops, x, w, j,
                                                 int(labels[j])))
