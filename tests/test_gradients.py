import numpy as np
import pytest
from transgap.activations import ActivationSpec
from transgap.gradients import (central_differences, fd_gradient, grad_mean,
                                grad_sample, max_relative_error)
import scipy.sparse as sp

from transgap.graphs import (PropagationMatrix, build_graph,
                             normalized_adjacency, sbm_generate)
from transgap.models import (ModelSpec, PropOps, forward, init_params,
                             kink_distance, layout_for)

Q2 = ActivationSpec(q=2.0)
ALL_ARCHS = ("gcn", "gcnii", "sgc", "appnp", "gprgnn")


def small_instance(arch, seed, q=2.0, n=12, d=4, h=3, c=2, big_k=3,
                   depth=2, scale=2.0):
    """Random instance, resampled until the checked node's gradient is live
    (a numb instance cannot support a relative FD comparison)."""
    spec = ModelSpec(arch=arch, d=d, h=h, num_classes=c,
                     activation=ActivationSpec(q=q), big_k=big_k, depth=depth)
    g, labels = sbm_generate([n // 2, n - n // 2], 0.6, 0.2, seed=seed)
    ops = PropOps(normalized_adjacency(g), spec)
    rng = np.random.default_rng(seed + 1)
    x = scale * rng.normal(size=(n, d))
    labels = (labels % c).astype(np.int64)
    i = seed % n
    w = init_params(spec, seed=seed * 64 + 2)
    for attempt in range(64):
        w = init_params(spec, seed=seed * 64 + 2 + attempt)
        grad = grad_sample(spec, ops, x, w, i, int(labels[i]))
        if float(np.abs(grad).max()) >= 1e-2:
            break
    return spec, ops, x, w, labels


class TestClosedFormTriangle:
    def test_gcn_output_block(self):
        spec = ModelSpec(arch="gcn", d=3, h=3, num_classes=3, activation=Q2)
        g = build_graph([(0, 1), (0, 2), (1, 2)], 3)
        ops = PropOps(normalized_adjacency(g), spec)
        layout = layout_for(spec)
        w = np.zeros(layout.dim)
        np.fill_diagonal(layout.view(w, "W1"), 1.0)
        np.fill_diagonal(layout.view(w, "W2"), 1.0)
        grad = grad_sample(spec, ops, np.eye(3), w, 0, 0)
        err = np.array([-2 / 3, 1 / 3, 1 / 3])
        expect_w2 = np.kron(err, np.full(3, 1 / 9))
        np.testing.assert_allclose(grad[layout.slice_of("W2")], expect_w2,
                                   atol=1e-15)

    def test_one_hot_prediction_kills_output_block(self):
        spec, ops, x, w, labels = small_instance("gcn", seed=0)
        layout = layout_for(spec)
        cache = forward(spec, ops, x, w)
        cache.probs = np.zeros_like(cache.probs)
        cache.probs[:, 1] = 1.0  # exact one-hot at the true label
        grad = grad_sample(spec, ops, x, w, 2, 1, cache=cache)
        assert np.all(grad[layout.slice_of("W2")] == 0.0)


# Hub 0 with a triangle and two spokes, the bridge 5-6 into a second
# triangle, the pendant 9 on node 8, and the isolated node 10.
SHAPES_EDGES = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5), (5, 6),
                (6, 7), (7, 8), (6, 8), (8, 9)]
SHAPES_NODES = {"hub": 0, "bridge": 5, "pendant": 9, "isolated": 10}
ROW_ARCHS = ("gcn", "sgc", "gcnii", "gcn6", "gcnii6")


def _one_node_instance(arch, p):
    depth = 6 if arch.endswith("6") else 2
    spec = ModelSpec(arch=arch.rstrip("6"), d=4, h=5, num_classes=3,
                     activation=Q2, depth=depth)
    rng = np.random.default_rng(11)
    x = 2.0 * rng.normal(size=(p.n, spec.d))
    labels = rng.integers(0, spec.num_classes, size=p.n)
    return spec, PropOps(p, spec), x, init_params(spec, seed=3), labels


def _assert_sample_is_one_node_mean(arch, p, i):
    spec, ops, x, w, labels = _one_node_instance(arch, p)
    gs = grad_sample(spec, ops, x, w, i, int(labels[i]))
    gm = grad_mean(spec, ops, x, w, np.array([i]), labels)
    scale = float(np.abs(gm).max())
    assert float(np.abs(gs - gm).max()) <= 1e-12 * scale
    return scale


class TestOneNodeBackward:
    """grad_sample spreads the first hop along the node's own row of P;
    grad_mean on that one node propagates over the whole graph."""

    @pytest.mark.parametrize("where", sorted(SHAPES_NODES))
    @pytest.mark.parametrize("arch", ROW_ARCHS)
    def test_matches_one_node_mean(self, arch, where):
        p = normalized_adjacency(build_graph(SHAPES_EDGES, 11))
        assert _assert_sample_is_one_node_mean(
            arch, p, SHAPES_NODES[where]) > 0.0

    @pytest.mark.parametrize("i", range(5))
    @pytest.mark.parametrize("arch", ROW_ARCHS)
    def test_without_self_loops(self, arch, i):
        # The path 0-1-2-3 and the isolated node 4: the supports of
        # successive hops alternate between even and odd nodes.
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        a = sp.coo_matrix((np.full(3, 0.5), (edges[:, 0], edges[:, 1])),
                          shape=(5, 5))
        p = PropagationMatrix.from_scipy(a + a.T)
        scale = _assert_sample_is_one_node_mean(arch, p, i)
        # Without a self-loop no hop reaches the isolated node's features,
        # except gcnii's initial-residual path.
        assert (scale > 0.0) == (i < 4 or arch.startswith("gcnii"))


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("arch", ALL_ARCHS)
    def test_ten_instances_q2(self, arch):
        worst = 0.0
        for seed in range(10):
            spec, ops, x, w, labels = small_instance(arch, seed=seed)
            i = seed % ops.n
            ga = grad_sample(spec, ops, x, w, i, int(labels[i]))
            gf = fd_gradient(spec, ops, x, w, i, int(labels[i]), step=1e-6)
            worst = max(worst, max_relative_error(ga, gf))
        assert worst <= 1e-5

    @pytest.mark.parametrize("arch", ALL_ARCHS)
    def test_low_exponent_away_from_kinks(self, arch):
        checked = 0
        for seed in range(14):
            spec, ops, x, w, labels = small_instance(arch, seed=seed, q=1.1)
            cache = forward(spec, ops, x, w)
            if kink_distance(spec, x, w, cache) <= 1e-4:
                continue  # near a derivative kink; resampled per policy
            i = seed % ops.n
            ga = grad_sample(spec, ops, x, w, i, int(labels[i]))
            gf = fd_gradient(spec, ops, x, w, i, int(labels[i]), step=1e-6)
            assert max_relative_error(ga, gf) <= 1e-3
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("arch,depth", [("gcn", 6), ("gcnii", 6),
                                            ("gcn", 3), ("gcnii", 4)])
    def test_deep_variants(self, arch, depth):
        spec, ops, x, w, labels = small_instance(arch, seed=3, depth=depth,
                                                 scale=3.0)
        ga = grad_sample(spec, ops, x, w, 5, int(labels[5]))
        gf = fd_gradient(spec, ops, x, w, 5, int(labels[5]), step=1e-6)
        assert max_relative_error(ga, gf) <= 1e-5


class TestFdOracle:
    def test_linear_probe_recovers_coefficients(self):
        rng = np.random.default_rng(7)
        coeff = rng.normal(size=9)
        w = rng.normal(size=9)
        grad = central_differences(lambda v: float(coeff @ v), w, step=1e-6)
        np.testing.assert_allclose(grad, coeff, atol=1e-10)

    def test_step_consistency(self):
        spec, ops, x, w, labels = small_instance("gcn", seed=1)
        g6 = fd_gradient(spec, ops, x, w, 4, int(labels[4]), step=1e-6)
        g5 = fd_gradient(spec, ops, x, w, 4, int(labels[4]), step=1e-5)
        assert np.abs(g6 - g5).max() <= 1e-4

    def test_nonpositive_step_rejected(self):
        spec, ops, x, w, labels = small_instance("gcn", seed=1)
        with pytest.raises(ValueError):
            fd_gradient(spec, ops, x, w, 0, 0, step=0.0)


class TestBatchMean:
    @pytest.mark.parametrize("arch", ALL_ARCHS + ("gcn6", "gcnii6"))
    def test_matches_per_sample_average(self, arch):
        depth = 6 if arch.endswith("6") else 2
        base = arch[:-1] if arch.endswith("6") else arch
        spec, ops, x, w, labels = small_instance(base, seed=5, depth=depth)
        idx = np.array([0, 3, 3, 7, 11])  # with-replacement multiset
        gm = grad_mean(spec, ops, x, w, idx, labels)
        per = [grad_sample(spec, ops, x, w, int(j), int(labels[j]))
               for j in idx]
        np.testing.assert_allclose(gm, np.mean(per, axis=0), atol=1e-12)

    def test_empty_index_set_rejected(self):
        spec, ops, x, w, labels = small_instance("sgc", seed=2)
        with pytest.raises(ValueError):
            grad_mean(spec, ops, x, w, np.array([], dtype=int), labels)


@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_every_gradient_is_one_backward(arch, monkeypatch):
    """grad_sample, with or without a whole-graph forward, and grad_mean
    each run ``gradients._backward`` once: no architecture has a second
    backward pass."""
    import transgap.gradients as gradients

    spec, ops, x, w, labels = small_instance(arch, seed=4)
    calls = []
    backward = gradients._backward

    def spy(*args, **kwargs):
        calls.append(arch)
        return backward(*args, **kwargs)

    monkeypatch.setattr(gradients, "_backward", spy)
    cache = forward(spec, ops, x, w)
    grad_sample(spec, ops, x, w, 5, int(labels[5]))
    assert len(calls) == 1
    grad_sample(spec, ops, x, w, 5, int(labels[5]), cache=cache)
    assert len(calls) == 2
    grad_mean(spec, ops, x, w, np.array([1, 5, 5]), labels, cache=cache)
    assert len(calls) == 3
