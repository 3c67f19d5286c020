import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transgap.bounds import (BoundInputs, C0, DUDLEY_FACTOR, complexity_upper,
                             concentration_terms, excess_risk_rate,
                             gap_certificate, initial_bounds, rate_class,
                             rate_factor)

mp.mp.dps = 50


class TestConcentrationTerms:
    def test_unit_split(self):
        q, s, c0 = concentration_terms(1, 1)
        assert q == pytest.approx(2.0)
        assert s == pytest.approx(8.0 / 3.0)

    def test_c0_against_arbitrary_precision(self):
        golden = mp.sqrt(32 * mp.log(4 * mp.e) / 3)
        assert abs(C0 - float(golden)) <= 1e-10

    def test_symmetric_split(self):
        for m in (3, 17, 250):
            q, _, _ = concentration_terms(m, m)
            assert q == pytest.approx(2.0 / m)

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            concentration_terms(0, 5)


class TestComplexityUpper:
    def test_dudley_factor_against_arbitrary_precision(self):
        golden = mp.sqrt(mp.log(3)) + mp.mpf(3) / 2 * mp.sqrt(mp.pi)
        assert abs(DUDLEY_FACTOR - float(golden)) <= 1e-10

    def test_toy_value(self):
        got = complexity_upper(1, 1, 1, 1.0, 1.0, 1.0)
        scale = mp.mpf(2) ** mp.mpf("1.5")
        golden = scale + 12 * scale * (mp.sqrt(mp.log(3))
                                       + mp.mpf(3) / 2 * mp.sqrt(mp.pi))
        assert got == pytest.approx(float(golden), abs=1e-10)
        assert got == pytest.approx(128.66, abs=0.05)

    def test_vanishes_without_loss_or_slope(self):
        assert complexity_upper(4, 6, 10, 0.0, 1.0, 0.0) == 0.0

    def test_doubling_scales_by_sqrt2(self):
        a = complexity_upper(100, 100, 7, 2.0, 1.5, 0.3)
        b = complexity_upper(200, 200, 7, 2.0, 1.5, 0.3)
        assert a / b == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("l_f", [0.0, 2.0, 1e300, math.inf])
    def test_zero_radius_leaves_no_covering_term(self, l_f):
        # a ball of radius 0 holds one function, even under an infinite L_F
        trc = complexity_upper(4, 6, 10, 0.0, 0.0, 0.3)
        assert trc > 0.0
        assert complexity_upper(4, 6, 10, l_f, 0.0, 0.3) == trc
        rep = gap_certificate(toy_inputs(m=4, u=6, dim=10, l_f=l_f,
                                         radius=0.0, b_loss=0.3))
        assert rep.dudley_term == 0.0 and rep.trc_term == trc
        assert math.isfinite(rep.total)


class TestRates:
    def test_class_boundaries(self):
        assert rate_class(0.3) == "alpha_lt_half"
        assert rate_class(0.5) == "alpha_eq_half"
        assert rate_class(0.9) == "alpha_gt_half"
        with pytest.raises(ValueError):
            rate_class(0.0)

    def test_half_exponent_at_e(self):
        assert rate_factor(0.5, math.e) == pytest.approx(1.0)

    def test_top_exponent_at_hundred(self):
        assert rate_factor(1.0, 100) == pytest.approx(math.sqrt(math.log(100)))

    def test_low_exponent_grows_polynomially(self):
        golden = mp.sqrt(mp.log(50)) * mp.mpf(50) ** (mp.mpf("0.3"))
        assert rate_factor(0.2, 50) == pytest.approx(float(golden), abs=1e-10)


class TestExcessRisk:
    def test_square_root_case(self):
        assert excess_risk_rate(0.5, 16).optimization == pytest.approx(0.25)

    def test_single_step(self):
        assert excess_risk_rate(0.3, 1).optimization == 1.0

    def test_top_case_with_delta(self):
        r = excess_risk_rate(1.0, math.e, delta=math.exp(-1.0))
        assert r.optimization == pytest.approx(1.0 / math.e, abs=1e-12)

    def test_components_sum(self):
        r = excess_risk_rate(0.5, 20, delta=0.2)
        assert r.total == pytest.approx(r.gap_rate + r.optimization)


def toy_inputs(**kw):
    base = dict(m=1, u=1, dim=1, big_t=1, delta=0.5, alpha=1.0, l_f=1.0,
                radius=1.0, b_loss=1.0, b_grad=1.0)
    base.update(kw)
    return BoundInputs(**base)


class TestGapCertificate:
    def test_toy_assembly_against_arbitrary_precision(self):
        rep = gap_certificate(toy_inputs())
        scale = mp.mpf(2) ** mp.mpf("1.5")
        dudley = 12 * scale * (mp.sqrt(mp.log(3))
                               + mp.mpf(3) / 2 * mp.sqrt(mp.pi))
        c0 = mp.sqrt(32 * mp.log(4 * mp.e) / 3)
        conc1 = c0 * 2
        s = mp.mpf(8) / 3
        conc2 = mp.sqrt(s * 2 / 2 * mp.log(4))
        golden = scale + dudley + conc1 + conc2
        assert rep.total == pytest.approx(float(golden), abs=1e-10)
        assert rep.trc_term == pytest.approx(float(scale), abs=1e-12)
        assert rep.rate_class == "alpha_gt_half"
        assert rep.rate_value == 0.0  # log(1) = 0

    def test_terms_sum_to_total(self):
        rep = gap_certificate(toy_inputs(m=30, u=70, dim=100, big_t=300,
                                         delta=0.1, alpha=0.5, l_f=3.0,
                                         radius=2.0, b_loss=1.2))
        total = (rep.trc_term + rep.dudley_term + rep.conc_term_1
                 + rep.conc_term_2)
        assert rep.total == pytest.approx(total)
        assert all(v >= 0 for v in (rep.trc_term, rep.dudley_term,
                                    rep.conc_term_1, rep.conc_term_2))

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            toy_inputs(delta=0.0)
        with pytest.raises(ValueError):
            toy_inputs(delta=1.0)

    @settings(max_examples=60, deadline=None)
    @given(l1=st.floats(0.1, 50), l2=st.floats(0.1, 50),
           r1=st.floats(0.1, 20), r2=st.floats(0.1, 20),
           d1=st.floats(0.01, 0.99), d2=st.floats(0.01, 0.99))
    def test_monotone_in_slope_radius_confidence(self, l1, l2, r1, r2, d1, d2):
        lo = gap_certificate(toy_inputs(m=10, u=20, dim=5, big_t=50,
                                        alpha=0.5, l_f=min(l1, l2),
                                        radius=min(r1, r2),
                                        delta=max(d1, d2))).total
        hi = gap_certificate(toy_inputs(m=10, u=20, dim=5, big_t=50,
                                        alpha=0.5, l_f=max(l1, l2),
                                        radius=max(r1, r2),
                                        delta=min(d1, d2))).total
        assert lo <= hi + 1e-12


class TestInitialBounds:
    def test_full_pass_maxima(self):
        from transgap.activations import ActivationSpec
        from transgap.datasets import sbm_bundle
        from transgap.gradients import grad_sample
        from transgap.graphs import normalized_adjacency
        from transgap.models import (ModelSpec, PropOps, init_params,
                                     loss_sample)

        bundle = sbm_bundle([5, 5], 0.5, 0.2, seed=0, d=4)
        spec = ModelSpec(arch="gcn", d=4, h=3, num_classes=2,
                         activation=ActivationSpec(q=2.0))
        ops = PropOps(normalized_adjacency(bundle.graph), spec)
        w1 = init_params(spec, 0)
        b_loss, b_grad, _ = initial_bounds(spec, ops, bundle.x, bundle.labels,
                                           w1)
        losses = [loss_sample(spec, ops, bundle.x, w1, i,
                              int(bundle.labels[i])) for i in range(10)]
        assert b_loss == pytest.approx(max(losses))
        norms = [np.linalg.norm(grad_sample(spec, ops, bundle.x, w1, i,
                                            int(bundle.labels[i])))
                 for i in range(10)]
        assert b_grad == pytest.approx(max(norms))

    def test_diagnostics_from_the_same_scan(self):
        from transgap.activations import ActivationSpec
        from transgap.bounds import gradient_norm_diagnostics
        from transgap.datasets import sbm_bundle
        from transgap.gradients import grad_sample
        from transgap.graphs import normalized_adjacency
        from transgap.models import ModelSpec, PropOps, init_params

        bundle = sbm_bundle([6, 5], 0.5, 0.2, seed=1, d=4)
        spec = ModelSpec(arch="gcnii", d=4, h=3, num_classes=2,
                         activation=ActivationSpec(q=2.0))
        ops = PropOps(normalized_adjacency(bundle.graph), spec)
        w1 = init_params(spec, 2)
        b_loss, b_grad, scan = initial_bounds(spec, ops, bundle.x,
                                              bundle.labels, w1)
        norms = np.array([np.linalg.norm(grad_sample(
            spec, ops, bundle.x, w1, i, int(bundle.labels[i])))
            for i in range(11)])
        np.testing.assert_allclose(scan, norms, rtol=1e-13)
        assert (b_loss, b_grad) == initial_bounds(spec, ops, bundle.x,
                                                  bundle.labels, w1)[:2]
        assert b_grad == float(scan.max())
        diag = gradient_norm_diagnostics(scan)
        assert diag["grad_norm_mean"] == pytest.approx(float(np.mean(norms)),
                                                       rel=1e-12)
        assert diag["grad_sq_norm_mean"] == pytest.approx(
            float(np.mean(norms ** 2)), rel=1e-12)
