import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transgap.activations import ActivationSpec, act_deriv, act_eval


class TestPointValues:
    def test_negative_input_is_dead(self):
        a = ActivationSpec(q=2.0)
        assert act_eval(a, -1.0) == 0.0
        assert act_deriv(a, -1.0) == 0.0

    def test_quadratic_region(self):
        a = ActivationSpec(q=2.0)
        assert a.t == pytest.approx(0.5)
        assert a.c == pytest.approx(0.25)
        assert act_eval(a, 0.3) == pytest.approx(0.09)
        assert act_deriv(a, 0.3) == pytest.approx(0.6)

    def test_linear_region(self):
        a = ActivationSpec(q=2.0)
        assert act_eval(a, 1.0) == pytest.approx(0.75)
        assert act_deriv(a, 1.0) == 1.0

    def test_continuity_at_joints(self):
        for q in (1.1, 1.5, 2.0):
            a = ActivationSpec(q=q)
            eps = 1e-9
            assert abs(act_eval(a, eps) - act_eval(a, -eps)) < 1e-8
            assert abs(act_eval(a, a.t + eps) - act_eval(a, a.t - eps)) < 1e-8
            assert act_eval(a, a.t) == pytest.approx(a.t ** q)
            assert act_deriv(a, a.t) == pytest.approx(1.0)

    def test_q_out_of_range(self):
        for q in (1.0, 2.5, 0.3):
            with pytest.raises(ValueError):
                ActivationSpec(q=q)


class TestScalarProperties:
    """Sampled pointwise bounds; the acceptance suite reruns these at 1e5."""

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0])
    def test_bounded_by_identity_and_unit_slope(self, q):
        a = ActivationSpec(q=q)
        x = np.random.default_rng(0).uniform(-3, 3, size=20_000)
        assert np.all(np.abs(act_eval(a, x)) <= np.abs(x) + 1e-15)
        assert np.all(np.abs(act_deriv(a, x)) <= 1.0 + 1e-15)

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0])
    def test_scalar_holder_derivative(self, q):
        a = ActivationSpec(q=q)
        rng = np.random.default_rng(1)
        x = rng.uniform(-3, 3, size=20_000)
        y = rng.uniform(-3, 3, size=20_000)
        lhs = np.abs(act_deriv(a, x) - act_deriv(a, y))
        rhs = q * np.abs(x - y) ** (q - 1.0)
        assert np.all(lhs <= rhs + 1e-12)

    @pytest.mark.parametrize("q", [1.25, 2.0])
    def test_relu_gap_attained_at_knee(self, q):
        a = ActivationSpec(q=q)
        grid = np.linspace(-2, 4, 400_001)
        dev = np.abs(act_eval(a, grid) - np.maximum(grid, 0.0))
        assert dev.max() <= a.relu_gap() + 1e-12
        assert abs(np.abs(act_eval(a, a.t) - a.t) - a.relu_gap()) <= 1e-15

    def test_relu_gap_quarter_at_q2(self):
        assert ActivationSpec(q=2.0).relu_gap() == pytest.approx(0.25, abs=1e-15)


class TestVectorHolder:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    @pytest.mark.parametrize("q", [1.1, 1.6, 2.0])
    def test_vector_constant(self, dim, q):
        a = ActivationSpec(q=q)
        const = a.holder_vector_constant(dim)
        rng = np.random.default_rng(dim * 17 + 1)
        u = rng.uniform(-3, 3, size=(4000, dim))
        v = rng.uniform(-3, 3, size=(4000, dim))
        lhs = np.linalg.norm(act_deriv(a, u) - act_deriv(a, v), axis=1)
        rhs = const * np.linalg.norm(u - v, axis=1) ** (q - 1.0)
        assert np.all(lhs <= rhs + 1e-10)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-50, 50), q=st.floats(1.01, 2.0))
def test_monotone_nonnegative(x, q):
    a = ActivationSpec(q=q)
    assert act_eval(a, x) >= 0.0
    assert act_deriv(a, x) >= 0.0


def _where_eval(a, x):
    """The clip + np.where formula the branch-free unit replaced."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > a.t, x - a.t + a.c, np.clip(x, 0.0, a.t) ** a.q)


def _where_deriv(a, x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > a.t, 1.0, a.q * np.clip(x, 0.0, a.t) ** (a.q - 1.0))


def _probe_points(a):
    rng = np.random.default_rng(11)
    t = a.t
    edges = [0.0, -0.0, t, np.nextafter(t, 0.0), np.nextafter(t, 2.0),
             5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf]
    return np.concatenate([rng.normal(scale=2.0, size=20000),
                           rng.uniform(0.0, t, size=2000), edges])


class TestBranchFreeFormula:
    def test_bit_identical_to_where_formula_at_q2(self):
        a = ActivationSpec(q=2.0)
        x = _probe_points(a).reshape(-1, 1)
        assert np.array_equal(act_eval(a, x), _where_eval(a, x))
        assert np.array_equal(act_deriv(a, x), _where_deriv(a, x))

    @pytest.mark.parametrize("q", [1.1, 1.5, 1.9])
    def test_within_1e15_of_where_formula(self, q):
        a = ActivationSpec(q=q)
        x = _probe_points(a)
        np.testing.assert_allclose(act_eval(a, x), _where_eval(a, x),
                                   rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(act_deriv(a, x), _where_deriv(a, x),
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("q", [1.1, 1.5, 1.9, 2.0])
    def test_derivative_at_most_one_and_exactly_one_beyond_knee(self, q):
        # q t^(q-1) rounds below 1 at q = 1.9; the derivative must not
        a = ActivationSpec(q=q)
        x = _probe_points(a)
        d = act_deriv(a, x)
        assert np.all(d <= 1.0)
        assert np.all(d[x >= a.t] == 1.0)

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_scalar_and_zero_d_input(self, q):
        a = ActivationSpec(q=q)
        for x in (0.3, -1.0, 4.0, np.float64(0.3), np.array(4.0), 2):
            assert float(act_eval(a, x)) == float(_where_eval(a, x))
            assert float(act_deriv(a, x)) == pytest.approx(
                float(_where_deriv(a, x)), abs=1e-15)
            assert np.shape(act_eval(a, x)) == ()


class TestFusedDerivative:
    """``act_eval(a, x, deriv=...)`` writes sigma' from the same clip by
    ``act_deriv``'s operations: both must match the oracles bit for bit,
    signed zeros included, with ``deriv`` a separate array or ``x``."""

    @staticmethod
    def grid(a):
        t = a.t
        points = [0.0, -0.0, 1e-300, -1e-300, -1.0, -0.5 * t, -1e300,
                  t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                  0.5 * t, 2.0 * t, 1e300, np.inf, -np.inf]
        return np.array(points * 4).reshape(-1, 4)

    @staticmethod
    def same_bits(got, want):
        return (np.array_equal(got, want)
                and np.array_equal(got.view(np.int64), want.view(np.int64)))

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0])
    def test_separate_array(self, q):
        a = ActivationSpec(q=q)
        x = self.grid(a)
        deriv = np.empty_like(x)
        value = act_eval(a, x, deriv=deriv)
        assert self.same_bits(value, act_eval(a, x))
        assert self.same_bits(deriv, act_deriv(a, x))

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0])
    def test_in_place_with_lent_arrays(self, q):
        a = ActivationSpec(q=q)
        x = self.grid(a)
        want_value, want_deriv = act_eval(a, x), act_deriv(a, x)
        out, tmp = np.full_like(x, np.nan), np.full_like(x, np.nan)
        value = act_eval(a, x, deriv=x, out=out, tmp=tmp)
        assert value is out
        assert self.same_bits(value, want_value)
        assert self.same_bits(x, want_deriv)
