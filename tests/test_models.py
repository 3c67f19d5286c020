import json

import numpy as np
import pytest

from transgap.activations import ActivationSpec, act_eval
from transgap.datasets import sbm_bundle
from transgap.experiments import MODEL_CHOICES, model_spec_for
from transgap.graphs import build_graph, normalized_adjacency
from transgap.models import (ModelSpec, PropOps, cross_entropy, forward,
                             init_params, layout_for, preactivations,
                             softmax_xent)

Q2 = ActivationSpec(q=2.0)


def k3_ops(spec):
    g = build_graph([(0, 1), (0, 2), (1, 2)], 3)
    return PropOps(normalized_adjacency(g), spec)


def identity_params(spec):
    """All matrix blocks set to (truncated) identities."""
    layout = layout_for(spec)
    w = np.zeros(layout.dim)
    for name, shape in layout.blocks:
        if name == "gamma":
            continue
        view = layout.view(w, name)
        np.fill_diagonal(view, 1.0)
    return w


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, probs = softmax_xent(np.zeros(3), 1)
        np.testing.assert_allclose(probs, 1 / 3)
        assert loss == pytest.approx(np.log(3.0))

    def test_shift_invariance_no_overflow(self):
        loss, probs = softmax_xent(np.array([1000.0, 1000.0, 1000.0]), 0)
        np.testing.assert_allclose(probs, 1 / 3)
        assert loss == pytest.approx(np.log(3.0))

    def test_two_class_closed_form(self):
        loss, probs = softmax_xent(np.array([2.0, 0.0]), 0)
        e2 = np.exp(2.0)
        np.testing.assert_allclose(probs, [e2 / (e2 + 1), 1 / (e2 + 1)])
        assert loss == pytest.approx(np.log(1 + np.exp(-2.0)))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_xent(np.zeros(3), 3)


class TestLogitMapContraction:
    """Sampled Lipschitz bounds of the softmax and loss-of-logits maps."""

    def test_softmax_two_lipschitz(self):
        from transgap.models import softmax_rows
        rng = np.random.default_rng(8)
        v = rng.normal(scale=3.0, size=(10_000, 5))
        u = v + rng.normal(scale=1.5, size=(10_000, 5))
        lhs = np.linalg.norm(softmax_rows(v) - softmax_rows(u), axis=1)
        rhs = 2.0 * np.linalg.norm(v - u, axis=1)
        assert np.all(lhs <= rhs + 1e-12)

    def test_cross_entropy_sqrt2_lipschitz(self):
        rng = np.random.default_rng(9)
        v = rng.normal(scale=3.0, size=(10_000, 4))
        u = v + rng.normal(scale=1.5, size=(10_000, 4))
        labels = rng.integers(0, 4, size=10_000)
        bound = np.sqrt(2.0) * np.linalg.norm(v - u, axis=1)
        for k in range(0, 10_000, 997):
            lv, _ = softmax_xent(v[k], int(labels[k]))
            lu, _ = softmax_xent(u[k], int(labels[k]))
            assert abs(lv - lu) <= bound[k] + 1e-12


class TestParamSerialization:
    def test_round_trip_with_sidecar(self, tmp_path):
        from transgap.models import load_params, save_params
        spec = ModelSpec(arch="gprgnn", d=3, h=4, num_classes=2,
                         activation=Q2, big_k=3)
        w = init_params(spec, 7)
        save_params(spec, w, tmp_path / "w.bin")
        assert (tmp_path / "w.bin.json").exists()
        back = load_params(spec, tmp_path / "w.bin")
        np.testing.assert_array_equal(back, w)

    def test_layout_mismatch_rejected(self, tmp_path):
        from transgap.models import load_params, save_params
        spec = ModelSpec(arch="sgc", d=3, h=4, num_classes=2, activation=Q2)
        save_params(spec, init_params(spec, 0), tmp_path / "w.bin")
        other = ModelSpec(arch="sgc", d=3, h=5, num_classes=2, activation=Q2)
        with pytest.raises(ValueError, match="layout mismatch"):
            load_params(other, tmp_path / "w.bin")

    def test_same_length_other_layout_rejected(self, tmp_path):
        # blocks 4x6 and 6x2 against 6x4 and 4x3: both dim 36
        from transgap.models import load_params, save_params
        spec = ModelSpec(arch="gcn", d=4, h=6, num_classes=2, activation=Q2)
        save_params(spec, init_params(spec, 0), tmp_path / "w.bin")
        other = ModelSpec(arch="gcn", d=6, h=4, num_classes=3, activation=Q2)
        assert layout_for(other).dim == layout_for(spec).dim == 36
        with pytest.raises(ValueError, match="layout mismatch"):
            load_params(other, tmp_path / "w.bin")

    def test_edited_order_rejected(self, tmp_path):
        from transgap.models import load_params, save_params
        spec = ModelSpec(arch="gcn", d=4, h=6, num_classes=2, activation=Q2)
        save_params(spec, init_params(spec, 0), tmp_path / "w.bin")
        sidecar_path = tmp_path / "w.bin.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["order"] = "rows"
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="layout mismatch"):
            load_params(spec, tmp_path / "w.bin")


class TestLayouts:
    def test_block_order_and_dims(self):
        spec = ModelSpec(arch="gcnii", d=5, h=4, num_classes=3, activation=Q2)
        layout = layout_for(spec)
        assert layout.names() == ("W0", "W1", "W2", "W3")
        assert layout.dim == 5 * 4 + 4 * 4 + 4 * 4 + 4 * 3

    def test_gpr_has_coefficient_tail(self):
        spec = ModelSpec(arch="gprgnn", d=2, h=3, num_classes=2,
                         activation=Q2, big_k=4)
        layout = layout_for(spec)
        assert layout.names() == ("W1", "W2", "gamma")
        assert layout.dim == 6 + 6 + 5

    def test_views_are_column_major(self):
        spec = ModelSpec(arch="sgc", d=2, h=3, num_classes=2, activation=Q2)
        layout = layout_for(spec)
        w = np.arange(float(layout.dim))
        w1 = layout.view(w, "W1")
        # vec stacks columns: flat index col*rows + row
        assert w1[0, 0] == 0.0 and w1[1, 0] == 1.0 and w1[0, 1] == 2.0

    def test_view_writes_through(self):
        spec = ModelSpec(arch="sgc", d=2, h=2, num_classes=2, activation=Q2)
        layout = layout_for(spec)
        w = np.zeros(layout.dim)
        layout.view(w, "W2")[...] = np.eye(2)
        assert w[layout.slice_of("W2")].tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_gcn_depth_six_layers(self):
        spec = ModelSpec(arch="gcn", d=3, h=4, num_classes=2, activation=Q2,
                         depth=6)
        assert layout_for(spec).names() == ("W1", "W2", "W3", "W4", "W5", "W6")

    # d=3, h=4, two classes, K=3: every model's blocks in layout order
    BLOCKS = {
        "gcn": [("W1", (3, 4)), ("W2", (4, 2))],
        "sgc": [("W1", (3, 4)), ("W2", (4, 2))],
        "appnp": [("W1", (3, 4)), ("W2", (4, 2))],
        "gprgnn": [("W1", (3, 4)), ("W2", (4, 2)), ("gamma", (4,))],
        "gcnii": [("W0", (3, 4)), ("W1", (4, 4)), ("W2", (4, 4)),
                  ("W3", (4, 2))],
        "gcn6": [("W1", (3, 4))] + [(f"W{l}", (4, 4)) for l in range(2, 6)]
                + [("W6", (4, 2))],
        "gcnii6": [("W0", (3, 4))] + [(f"W{l}", (4, 4)) for l in range(1, 7)]
                  + [("W7", (4, 2))],
    }

    @pytest.mark.parametrize("model", MODEL_CHOICES)
    def test_slice_and_view_of_every_block(self, model):
        layout = layout_for(model_spec_for(model, d=3, num_classes=2,
                                           hidden=4, big_k=3))
        w = np.arange(float(layout.dim))
        offset = 0
        for name, shape in self.BLOCKS[model]:
            size = int(np.prod(shape))
            assert layout.slice_of(name) == slice(offset, offset + size)
            expect = w[offset:offset + size].reshape(shape, order="F")
            view = layout.view(w, name)
            assert view.shape == shape
            assert np.array_equal(view, expect)
            assert np.shares_memory(view, w)
            offset += size
        assert layout.dim == offset
        with pytest.raises(KeyError):
            layout.slice_of("W99")
        with pytest.raises(KeyError):
            layout.view(w, "W99")

    def test_equal_specs_share_one_layout(self):
        def spec(big_k=5):
            return ModelSpec(arch="gprgnn", d=3, h=4, num_classes=2,
                             activation=ActivationSpec(q=1.5), big_k=big_k)

        assert spec() is not spec() and spec() == spec()
        assert layout_for(spec()) is layout_for(spec())
        assert layout_for(spec(6)) is not layout_for(spec())
        assert layout_for(spec(6)).dim == layout_for(spec()).dim + 1


class TestForwardClosedForms:
    def test_gcn_triangle_hand_computation(self):
        spec = ModelSpec(arch="gcn", d=3, h=3, num_classes=3, activation=Q2)
        ops = k3_ops(spec)
        w = identity_params(spec)
        cache = forward(spec, ops, np.eye(3), w)
        third = np.full((3, 3), 1 / 3)
        pres = preactivations(spec, np.eye(3), w, cache)
        np.testing.assert_allclose(cache.zs[0], third, atol=1e-15)
        np.testing.assert_allclose(act_eval(Q2, pres[0]), third ** 2,
                                   atol=1e-15)
        np.testing.assert_allclose(cache.zs[-1], third ** 2, atol=1e-15)
        np.testing.assert_allclose(cache.probs, 1 / 3, atol=1e-15)
        assert cross_entropy(cache.probs[0, 0]) == pytest.approx(np.log(3.0))

    def test_sgc_triangle(self):
        spec = ModelSpec(arch="sgc", d=3, h=3, num_classes=3, activation=Q2)
        ops = k3_ops(spec)
        cache = forward(spec, ops, np.eye(3), identity_params(spec))
        np.testing.assert_allclose(cache.logits, np.full((3, 3), 1 / 3),
                                   atol=1e-15)
        np.testing.assert_allclose(cache.probs, 1 / 3, atol=1e-15)
        assert cross_entropy(cache.probs[1, 2]) == pytest.approx(np.log(3.0))

    def test_gcnii_reduces_to_plain_stack(self):
        """alpha=0, beta=1 turns every layer into sigma(P H W)."""
        spec = ModelSpec(arch="gcnii", d=4, h=4, num_classes=2,
                         activation=Q2, alpha1=0.0, alpha2=0.0,
                         beta1=1.0, beta2=1.0)
        bundle = sbm_bundle([5, 5], 0.5, 0.2, seed=3, d=4)
        p = normalized_adjacency(bundle.graph)
        ops = PropOps(p, spec)
        w = init_params(spec, seed=4)
        layout = layout_for(spec)
        cache = forward(spec, ops, bundle.x, w)
        dense = np.asarray(p.to_scipy().todense())
        h0 = act_eval(Q2, bundle.x @ layout.view(w, "W0"))
        h1 = act_eval(Q2, dense @ h0 @ layout.view(w, "W1"))
        h2 = act_eval(Q2, dense @ h1 @ layout.view(w, "W2"))
        # the forward keeps H_2 as the top; H_1 is sigma of a pre-activation
        pres = preactivations(spec, bundle.x, w, cache)
        np.testing.assert_allclose(act_eval(Q2, pres[1]), h1, atol=1e-12)
        np.testing.assert_allclose(cache.h_top, h2, atol=1e-12)
        np.testing.assert_allclose(cache.logits, h2 @ layout.view(w, "W3"),
                                   atol=1e-12)

    def test_appnp_restart_one_ignores_graph(self):
        spec = ModelSpec(arch="appnp", d=4, h=3, num_classes=2,
                         activation=Q2, gamma=1.0, big_k=3)
        bundle = sbm_bundle([4, 4], 0.8, 0.3, seed=1, d=4)
        ops = PropOps(normalized_adjacency(bundle.graph), spec)
        w = init_params(spec, seed=0)
        layout = layout_for(spec)
        cache = forward(spec, ops, bundle.x, w)
        s1 = act_eval(Q2, bundle.x @ layout.view(w, "W1"))
        h = act_eval(Q2, s1 @ layout.view(w, "W2"))
        np.testing.assert_allclose(cache.logits, h, atol=1e-14)

    def test_probability_rows_sum_to_one(self):
        bundle = sbm_bundle([6, 6], 0.5, 0.1, seed=2, d=4)
        p = normalized_adjacency(bundle.graph)
        for arch in ("gcn", "gcnii", "sgc", "appnp", "gprgnn"):
            spec = ModelSpec(arch=arch, d=4, h=3, num_classes=2,
                             activation=Q2, big_k=3)
            cache = forward(spec, PropOps(p, spec), bundle.x,
                            init_params(spec, seed=5))
            np.testing.assert_allclose(cache.probs.sum(axis=1), 1.0,
                                       atol=1e-9)
            assert np.all(np.isfinite(cache.logits))

    def test_forward_deterministic_bits(self):
        bundle = sbm_bundle([8, 8], 0.4, 0.1, seed=6, d=4)
        p = normalized_adjacency(bundle.graph)
        spec = ModelSpec(arch="gcn", d=4, h=5, num_classes=2, activation=Q2)
        ops = PropOps(p, spec)
        w = init_params(spec, seed=1)
        a = forward(spec, ops, bundle.x, w)
        b = forward(spec, ops, bundle.x, w)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.probs, b.probs)

    def test_dimension_mismatch_rejected(self):
        spec = ModelSpec(arch="gcn", d=3, h=3, num_classes=3, activation=Q2)
        ops = k3_ops(spec)
        with pytest.raises(ValueError):
            forward(spec, ops, np.eye(4), identity_params(spec))

    def test_lazy_filter_fallback_agrees(self, monkeypatch):
        """Above the materialization limit, forward and per-sample gradients
        run through the lazy filter path and must agree to 1e-10."""
        import transgap.models as models
        from transgap.gradients import grad_sample

        bundle = sbm_bundle([7, 7], 0.5, 0.2, seed=9, d=4)
        spec = ModelSpec(arch="appnp", d=4, h=3, num_classes=2,
                         activation=Q2, gamma=0.2, big_k=4)
        p = normalized_adjacency(bundle.graph)
        w = init_params(spec, 2)
        eager = PropOps(p, spec)
        monkeypatch.setattr(models, "FILTER_MATERIALIZE_LIMIT", 0)
        lazy = PropOps(p, spec)
        assert lazy.filter is None and eager.filter is not None
        a = forward(spec, eager, bundle.x, w)
        b = forward(spec, lazy, bundle.x, w)
        np.testing.assert_allclose(a.logits, b.logits, atol=1e-10)
        ga = grad_sample(spec, eager, bundle.x, w, 3, 1)
        gb = grad_sample(spec, lazy, bundle.x, w, 3, 1)
        np.testing.assert_allclose(ga, gb, atol=1e-10)


class TestFilterMaterialization:
    def test_only_small_graphs_materialize_the_appnp_filter(self):
        """The teleport filter is stored for the 200-node benchmark bundle
        and applied lazily on a 400-node one (mean degree about 12)."""
        spec = ModelSpec(arch="appnp", d=3, h=4, num_classes=2, activation=Q2)
        for n, stored in ((200, True), (400, False)):
            pin = 24.0 / (1.1 * n)
            bundle = sbm_bundle([n // 2, n // 2], pin, pin / 10, seed=0, d=3)
            ops = PropOps(normalized_adjacency(bundle.graph), spec)
            assert (ops.filter is not None) == stored, n


class TestInit:
    def test_fan_in_bound_respected(self):
        spec = ModelSpec(arch="gcn", d=16, h=8, num_classes=4, activation=Q2)
        layout = layout_for(spec)
        w = init_params(spec, seed=0)
        w1 = layout.view(w, "W1")
        assert np.abs(w1).max() <= 1.0 / 4.0
        w2 = layout.view(w, "W2")
        assert np.abs(w2).max() <= 1.0 / np.sqrt(8.0)

    def test_gpr_coefficients_start_at_teleport_values(self):
        spec = ModelSpec(arch="gprgnn", d=3, h=3, num_classes=2,
                         activation=Q2, big_k=4)
        layout = layout_for(spec)
        gamma = layout.view(init_params(spec, seed=0), "gamma")
        expect = [0.1 * 0.9 ** k for k in range(4)] + [0.9 ** 4]
        np.testing.assert_allclose(gamma, expect, atol=1e-15)

    def test_deterministic(self):
        spec = ModelSpec(arch="gcnii", d=3, h=3, num_classes=2, activation=Q2)
        assert np.array_equal(init_params(spec, 9), init_params(spec, 9))
        assert not np.array_equal(init_params(spec, 9), init_params(spec, 10))
