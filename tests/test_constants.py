import numpy as np
import pytest

from conftest import pair_norms, sample_weight_pair
from transgap.activations import ActivationSpec
from transgap.constants import (ConstantsReport, PropagationNorms, compute_cw,
                                compute_cx, constants_report,
                                gcnii_lipschitz_parts, gradient_smoothness,
                                loss_lipschitz, measure_norms, spectral_norm)
from transgap.datasets import row_normalize, sbm_bundle
from transgap.gradients import grad_sample
from transgap.graphs import (build_graph, inf_norm_power,
                             normalized_adjacency, sbm_generate)
from transgap.models import (ModelSpec, PropOps, layout_for, loss_sample,
                             init_params)

Q2 = ActivationSpec(q=2.0)


def spec_for(arch, **kw):
    base = dict(d=4, h=3, num_classes=2, activation=Q2, big_k=3)
    base.update(kw)
    return ModelSpec(arch=arch, **base)


class TestMeasuredConstants:
    def test_cx_identity(self):
        assert compute_cx(np.eye(3)) == 1.0

    def test_cx_three_four_five(self):
        assert compute_cx(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_cx_after_row_normalization(self):
        x = np.random.default_rng(0).normal(size=(20, 5))
        assert compute_cx(row_normalize(x)) == pytest.approx(1.0, abs=1e-12)

    def test_cw_identities(self):
        spec = spec_for("gcnii", d=3, h=3)
        layout = layout_for(spec)
        w = np.zeros(layout.dim)
        for name, _ in layout.blocks:
            np.fill_diagonal(layout.view(w, name), 1.0)
        assert compute_cw(w, layout) == pytest.approx(1.0)

    def test_cw_diagonal(self):
        assert spectral_norm(np.diag([2.0, 1.0])).value == pytest.approx(2.0)

    def test_cw_matches_svd(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            m = rng.normal(size=(5, 4))
            est = spectral_norm(m)
            assert est.converged
            assert est.value == pytest.approx(np.linalg.svd(m)[1][0],
                                              rel=1e-13)

    def test_cw_skips_coefficient_block(self):
        spec = spec_for("gprgnn")
        layout = layout_for(spec)
        w = init_params(spec, 0)
        layout.view(w, "gamma")[...] = 100.0  # must not contaminate c_W
        assert compute_cw(w, layout) < 5.0


def triangle_norms():
    p = normalized_adjacency(build_graph([(0, 1), (0, 2), (1, 2)], 3))
    return p, PropagationNorms(a_inf=p.inf_norm,
                               a2_inf=inf_norm_power(p, 2),
                               g_inf=p.inf_norm, power_sum=0.0)


class TestLossLipschitz:
    def test_gcn_triangle(self):
        _, norms = triangle_norms()
        val = loss_lipschitz(spec_for("gcn", num_classes=3), 1.0, 1.0, norms)
        assert val.value == pytest.approx(2.0)

    def test_gcnii_zero_hypers_match_gcn(self):
        p = normalized_adjacency(sbm_generate([10, 10], 0.4, 0.1, 3)[0])
        norms = measure_norms(spec_for("gcn"), p)
        gcn = loss_lipschitz(spec_for("gcn"), 1.3, 1.7, norms).value
        spec = spec_for("gcnii", alpha1=0.0, alpha2=0.0, beta1=0.0, beta2=0.0)
        gcnii = loss_lipschitz(spec, 1.3, 1.7, norms)
        assert gcnii.value == pytest.approx(gcn, abs=1e-12)
        assert gcnii.parts.l2 == 0.0

    def test_sgc_below_gcn_on_path(self):
        p = normalized_adjacency(build_graph([(0, 1), (1, 2)], 3))
        norms_gcn = measure_norms(spec_for("gcn"), p)
        norms_sgc = measure_norms(spec_for("sgc"), p)
        l_gcn = loss_lipschitz(spec_for("gcn"), 1.0, 1.0, norms_gcn).value
        l_sgc = loss_lipschitz(spec_for("sgc"), 1.0, 1.0, norms_sgc).value
        assert l_sgc == pytest.approx(2.0 * inf_norm_power(p, 2))
        assert l_gcn == pytest.approx(2.0 * p.inf_norm ** 2)
        assert l_sgc <= l_gcn

    def test_gpr_dominates_its_filter_component(self):
        spec = spec_for("gprgnn")
        p = normalized_adjacency(sbm_generate([8, 8], 0.4, 0.1, 1)[0])
        gamma = np.array([0.1 * 0.9 ** k for k in range(3)] + [0.9 ** 3])
        norms = measure_norms(spec, p, gamma=gamma)
        l_gpr = loss_lipschitz(spec, 1.0, 1.0, norms).value
        l2 = 2.0 * norms.g_inf
        assert l_gpr >= l2 - 1e-15
        # matched filters: the component equals the teleport-filter constant
        appnp = spec_for("appnp", gamma=0.1)
        norms_a = measure_norms(appnp, p)
        l_appnp = loss_lipschitz(appnp, 1.0, 1.0, norms_a).value
        assert l2 == pytest.approx(l_appnp, rel=1e-12)

    def test_appnp_below_gcn_when_premise_holds(self):
        for seed in range(10):
            p = normalized_adjacency(sbm_generate([10, 10], 0.3, 0.1, seed)[0])
            appnp = spec_for("appnp", gamma=0.1, big_k=10)
            norms = measure_norms(appnp, p)
            if norms.g_inf <= p.inf_norm ** 2:
                l_a = loss_lipschitz(appnp, 1.0, 1.0, norms).value
                l_g = 2.0 * p.inf_norm ** 2
                assert l_a <= l_g + 1e-12

    def test_depth_variants_have_no_certificate(self):
        _, norms = triangle_norms()
        with pytest.raises(ValueError):
            loss_lipschitz(spec_for("gcn", depth=6), 1.0, 1.0, norms)


class TestGradientSmoothness:
    def test_sgc_has_no_holder_part(self):
        _, norms = triangle_norms()
        res = gradient_smoothness(spec_for("sgc"), 1.0, 1.0, norms)
        assert res.holder_term == 0.0
        assert res.value == res.linear_term

    def test_gcn_triangle_golden_value(self):
        # hand aggregation at c_X = c_W = 1, norm 1, q = 2, three classes:
        # linear columns (3 + sqrt2, 4 + sqrt2), Hoelder column (2 sqrt3, 0)
        _, norms = triangle_norms()
        res = gradient_smoothness(spec_for("gcn", num_classes=3), 1.0, 1.0,
                                  norms)
        s2 = np.sqrt(2.0)
        expect_linear = np.sqrt((3 + s2) ** 2 + (4 + s2) ** 2)
        expect_holder = 2.0 * np.sqrt(3.0)
        assert res.linear_term == pytest.approx(expect_linear, abs=1e-12)
        assert res.holder_term == pytest.approx(expect_holder, abs=1e-12)
        assert res.value == pytest.approx(expect_linear + expect_holder,
                                          abs=1e-12)

    def test_column_sums_exposed(self):
        _, norms = triangle_norms()
        res = gradient_smoothness(spec_for("gcn", num_classes=3), 1.0, 1.0,
                                  norms)
        np.testing.assert_allclose(res.column_sums,
                                   (3 + np.sqrt(2), 4 + np.sqrt(2)))
        assert res.aggregation == "lemma-aggregation (sum reading)"


class TestGprFilterNorm:
    """gpr_filter_inf_norm and measure_norms' filter norm against the dense
    filter sum_k gamma_k P^k."""

    @staticmethod
    def graphs():
        # 11 nodes: a 7-node block, a 3-node path with two pendant ends and
        # an isolated node, relabelled by every cyclic shift so that the
        # row with the largest sum falls into every block position.
        edges = np.array([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5),
                          (5, 6), (1, 6), (7, 8), (8, 9)])
        return [normalized_adjacency(build_graph((edges + shift) % 11, 11))
                for shift in range(11)]

    @pytest.mark.parametrize("gamma", [
        [0.1 * 0.9 ** k for k in range(4)] + [0.9 ** 4],
        [0.5, -0.8, 0.3, 0.6, -0.2],
        [-0.4, 0.0, 1.1],
    ])
    @pytest.mark.parametrize("width", [1, 4, 11, 50])
    def test_matches_dense_filter(self, gamma, width, monkeypatch):
        from transgap import constants

        gamma = np.array(gamma)
        # Unit-column blocks of `width` columns (the last one shorter).
        monkeypatch.setattr(constants, "_NORM_CHUNK", width * 11 * gamma.size)
        for p in self.graphs():
            dense = np.asarray(p.to_scipy().todense())
            filt = sum(c * np.linalg.matrix_power(dense, k)
                       for k, c in enumerate(gamma))
            expect = np.abs(filt).sum(axis=1).max()
            got = constants.gpr_filter_inf_norm(p, gamma)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
            spec = spec_for("gprgnn", big_k=gamma.size - 1)
            got = measure_norms(spec, p, gamma=gamma).g_inf
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestAppnpGolden:
    """appnp constants from literal norms.  The literals are the values of
    appnp's own formulas, 2 c_X c_W g and the 2 x 2 tables; gprgnn's
    formulas with power_sum 0, which appnp evaluates, give the same bits."""

    NORMS = PropagationNorms(a_inf=1.25, a2_inf=1.125, g_inf=0.9375,
                             power_sum=0.0)

    @pytest.mark.parametrize("q,value,holder,holder_cols", [
        (2.0, 54.071262722045375, 39.492269725975476,
         (33.520043408757694, 20.881715877393773)),
        (1.5, 46.66609829603448, 32.08710529996457,
         (23.793039271771303, 13.933793187330297)),
    ])
    def test_literal_norms(self, q, value, holder, holder_cols):
        spec = ModelSpec(arch="appnp", d=4, h=3, num_classes=3,
                         activation=ActivationSpec(q=q), gamma=0.2, big_k=4)
        assert loss_lipschitz(spec, 1.3, 1.7, self.NORMS).value == 4.14375
        res = gradient_smoothness(spec, 1.3, 1.7, self.NORMS)
        assert res.value == value
        assert res.linear_term == 14.578992996069903
        assert res.holder_term == holder
        assert res.column_sums == (10.30890481039221, 10.30890481039221)
        assert res.holder_column_sums == holder_cols


class TestSoundnessProbes:
    """Sampled certificates: the full-scale versions run in acceptance."""

    @pytest.mark.parametrize("arch", ("gcn", "gcnii", "sgc", "appnp",
                                      "gprgnn"))
    def test_loss_lipschitz_sound(self, arch):
        bundle = sbm_bundle([8, 8], 0.4, 0.15, seed=1, d=4, signal=1.0)
        x = row_normalize(bundle.x)
        spec = spec_for(arch)
        p = normalized_adjacency(bundle.graph)
        ops = PropOps(p, spec)
        c_x = compute_cx(x)
        for pair_seed in range(60):
            w, w2, cw = sample_weight_pair(spec, base_seed=2,
                                           pair_seed=pair_seed)
            norms = pair_norms(spec, p, w, w2)
            l_f = loss_lipschitz(spec, c_x, cw, norms).value
            node = pair_seed % ops.n
            label = int(bundle.labels[node])
            lhs = abs(loss_sample(spec, ops, x, w, node, label)
                      - loss_sample(spec, ops, x, w2, node, label))
            assert lhs <= l_f * np.linalg.norm(w - w2) + 1e-12

    @pytest.mark.parametrize("arch", ("gcn", "gcnii", "sgc", "appnp",
                                      "gprgnn"))
    def test_gradient_smoothness_sound(self, arch):
        bundle = sbm_bundle([6, 6], 0.5, 0.2, seed=4, d=4, signal=1.0)
        x = row_normalize(bundle.x)
        spec = spec_for(arch)
        p = normalized_adjacency(bundle.graph)
        ops = PropOps(p, spec)
        c_x = compute_cx(x)
        at = spec.activation.alpha_tilde
        for pair_seed in range(40):
            w, w2, cw = sample_weight_pair(spec, base_seed=3,
                                           pair_seed=pair_seed)
            norms = pair_norms(spec, p, w, w2)
            p_f = gradient_smoothness(spec, c_x, cw, norms).value
            node = pair_seed % ops.n
            label = int(bundle.labels[node])
            ga = grad_sample(spec, ops, x, w, node, label)
            gb = grad_sample(spec, ops, x, w2, node, label)
            dist = np.linalg.norm(w - w2)
            bound = p_f * max(dist, dist ** at)
            assert np.linalg.norm(ga - gb) <= bound + 1e-12


class TestConstantsReport:
    def test_report_assembly(self):
        bundle = sbm_bundle([8, 8], 0.4, 0.15, seed=2, d=4)
        spec = spec_for("gcnii")
        p = normalized_adjacency(bundle.graph)
        w = init_params(spec, 0)
        rep = constants_report(spec, p, bundle.x, w,
                               stats=bundle.graph.degree_stats())
        assert isinstance(rep, ConstantsReport)
        assert rep.l_f > 0 and rep.p_f > 0
        d = rep.to_dict()
        assert set(d["norms"]) == {"a_inf", "a2_inf", "g_inf", "power_sum"}
        assert "gcnii_parts" in d
        # the hyperparameter-corner value equals the plain-stack constant
        gcn_l = 2.0 * rep.c_x * rep.c_w * rep.norms.a_inf ** 2
        assert d["L_F_zero_hypers"] == pytest.approx(gcn_l, abs=1e-12)

    def test_cw_override(self):
        bundle = sbm_bundle([5, 5], 0.5, 0.2, seed=2, d=4)
        spec = spec_for("gcn")
        p = normalized_adjacency(bundle.graph)
        w = init_params(spec, 0)
        rep = constants_report(spec, p, bundle.x, w, c_w_override=1.0)
        assert rep.c_w == 1.0
        assert rep.l_f == pytest.approx(2.0 * rep.c_x * p.inf_norm ** 2)

    @pytest.mark.parametrize("arch", ["gcn", "gcnii"])
    @pytest.mark.parametrize("c_w", [None, 2.0, np.inf])
    def test_report_checks_depth_whatever_c_w(self, arch, c_w):
        """A pinned c_W of inf skips the formulas, not the depth rule."""
        bundle = sbm_bundle([10, 10], 0.3, 0.1, seed=0, d=4)
        spec = spec_for(arch, depth=6)
        p = normalized_adjacency(bundle.graph)
        with pytest.raises(ValueError, match="depth != 2"):
            constants_report(spec, p, bundle.x, init_params(spec, 0),
                             c_w_override=c_w)


class TestGcniiParts:
    def test_unit_hypers_formulas(self):
        spec = spec_for("gcnii", alpha1=0.0, alpha2=0.0, beta1=0.0, beta2=0.0)
        parts = gcnii_lipschitz_parts(spec, 2.0, 3.0, 1.5)
        assert parts.c1 == 1.0 and parts.c2 == 1.0
        assert parts.b1 == pytest.approx(2.0 * 3.0 * 1.5)
        assert parts.b2 == pytest.approx(parts.b1 * 1.5)
        assert parts.l1 == pytest.approx(4.0 * parts.b2 ** 2)
        assert parts.l2 == 0.0
